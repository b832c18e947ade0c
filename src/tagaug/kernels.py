"""The sparse (CSR) x dense product behind every graph convolution.

It runs twice per layer per epoch (forward and backward) for every
training epoch, so it dominates GCN training. The kernel is numpy only
and vectorised across rows: rows are ordered by degree, most entries
first, so at step j the rows that still have a j-th entry form a prefix
of that order, and one contiguous add handles all of them. Each row
still receives its entries one at a time in index order, so the result
is bit-equal to the sequential loop ``out[r] += data[j] * dense[indices[j]]``
and deterministic run to run.

The step-major layout depends only on the matrix, so ``csr_plan`` builds
it once: the plan is cached per adjacency (``NormalizedAdjacency``) and
every product reuses it. Steps are grouped into chunks of at most
n_rows entries, and each chunk costs one gather and one multiply, so
temporaries stay at most rows x cols.
"""

import numpy as np


def csr_plan(indptr, indices, data):
    """The degree order and step-major entries of a CSR matrix.

    Returns ``(order, chunks)``. ``order`` sorts rows by degree, most
    entries first (stable). Each chunk is ``(cols, vals, widths)`` for a
    run of consecutive steps: step j holds the j-th entry of the first
    ``widths[j]`` rows of ``order``, and ``cols`` / ``vals`` hold the
    column ids and values of those steps one after the other, each step
    in row order. A chunk holds at most n_rows entries.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    n_rows = len(indptr) - 1
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    starts = indptr[:-1][order]
    # widths[j]: how many rows have more than j entries (a prefix of order).
    widths = n_rows - np.cumsum(np.bincount(degree))[:-1]
    step_start = np.cumsum(widths) - widths
    step = np.repeat(np.arange(len(widths)), widths)
    pos = starts[np.arange(len(step)) - step_start[step]] + step
    cols, vals = indices[pos], data[pos]
    chunks = []
    lo = hi = 0  # entry range of the open chunk
    chunk_widths = []
    for width in widths.tolist():
        if chunk_widths and hi + width - lo > n_rows:
            chunks.append((cols[lo:hi], vals[lo:hi], chunk_widths))
            lo, chunk_widths = hi, []
        chunk_widths.append(width)
        hi += width
    if chunk_widths:
        chunks.append((cols[lo:hi], vals[lo:hi], chunk_widths))
    return order, chunks


def csr_matmul(indptr, indices, data, dense, plan=None):
    """Sparse (CSR) @ dense product, (n_rows x n_cols) float64 output.

    ``plan`` is ``csr_plan(indptr, indices, data)``; it is built here when
    not given.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    if plan is None:
        plan = csr_plan(indptr, indices, data)
    order, chunks = plan
    acc = np.zeros((len(order), dense.shape[1]))
    for cols, vals, widths in chunks:
        terms = dense[cols]
        terms *= vals[:, None]
        off = 0
        for width in widths:
            acc[:width] += terms[off:off + width]
            off += width
    out = np.empty_like(acc)
    out[order] = acc
    return out
