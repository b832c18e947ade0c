"""The sparse (CSR) x dense product behind every graph convolution.

It runs twice per layer per epoch (forward and backward) for every
training epoch, so it dominates GCN training. The kernel is numpy only
and vectorised across rows: rows are ordered by degree, most entries
first, so at step j the rows that still have a j-th entry form a prefix
of that order, and one broadcast multiply-add handles all of them. Each
row still receives its entries one at a time in index order, so the
result is bit-equal to the sequential loop
``out[r] += data[j] * dense[indices[j]]`` and deterministic run to run.
Temporaries are at most rows x cols.
"""

import numpy as np


def csr_matmul(indptr, indices, data, dense):
    """Sparse (CSR) @ dense product, (n_rows x n_cols) float64 output."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=np.float64)
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    degree = np.diff(indptr)
    order = np.argsort(-degree, kind="stable")
    starts = indptr[:-1][order]
    # widths[j]: how many rows have more than j entries (a prefix of order).
    widths = len(degree) - np.cumsum(np.bincount(degree))[:-1]
    acc = np.zeros((len(degree), dense.shape[1]))
    for j, width in enumerate(widths.tolist()):
        pos = starts[:width] + j
        term = dense[indices[pos]]
        term *= data[pos, None]
        acc[:width] += term
    out = np.empty_like(acc)
    out[order] = acc
    return out
