"""The sparse (CSR) x dense product behind every graph convolution, and
the helper that splits it and the dropout masks across CPUs.

The product runs twice per layer per epoch (forward and backward) for
every training epoch, so it dominates GCN training. ``csr_plan`` picks one
of two paths per matrix, once: ``normalized_adjacency`` builds the plan
with the adjacency, and every product of that adjacency reuses it:

- Dense: a matrix with at most ``DENSE_CELLS_PER_ENTRY`` cells per stored
  entry (the toy graph) is densified, and each product is one BLAS
  ``plan @ dense``, bit-equal to numpy's ``todense() @ dense`` on the same
  numpy and BLAS and, in float64, within 1e-12 relative of the index-order
  loop. Like every other ``@`` in training, its bits may depend on the
  BLAS build and thread count, and a non-finite entry of ``dense`` reaches
  every row of the product (0 x inf is NaN).
- Step-major: any sparser matrix. Rows are ordered by degree, most entries
  first, so at step j the rows that still have a j-th entry form a prefix
  of that order, and one contiguous add handles all of them. Each row
  receives its entries one at a time in index order, so the result is
  bit-equal to the sequential loop ``out[r] += data[j] * dense[indices[j]]``.

Neither path reads a row of ``dense`` beyond the matrix's column count.

Both paths compute in the dtype of the matrix's ``data``: float32 stays
float32, anything else is float64, and ``dense`` is cast to it. So a
float32 adjacency has one float32 plan, and its products are float32. In
either dtype, step-major is bit-equal to the sequential loop in that dtype,
and each entry of a product lies within ``gamma_k * (|A| @ |dense|)`` of
the exact product of the same entries, where ``gamma_k = k u / (1 - k u)``,
k is the row's entry count and u the dtype's unit roundoff (2**-24 for
float32): that bound holds for any order of summation, BLAS's included.

A row's sum does not depend on the other rows, so step-major rows are cut
into contiguous ranges of about equal entry counts, run on one thread per
usable CPU (``os.sched_getaffinity``; inside a job of
``neural.train_jobs``, the job's share of them) and at most one per
``RANGE_MIN_ENTRIES`` entries. Each range keeps its own degree order and
steps and writes its own rows of the output; numpy releases the
interpreter lock inside the gathers and adds. The bits do not depend on
the range count or on which thread runs a range. These threads are
tagaug's own: ``OPENBLAS_NUM_THREADS`` does not bound them, and a process
restricted to one CPU runs one range. Each range accumulates into its
own rows x cols scratch and scatters it into the output at the end. Its
steps are grouped into chunks of at most as many entries as the range has
rows, and each chunk costs one gather and one multiply, dropped before the
next, so a running range holds about two arrays of its own rows x cols.
"""

import ctypes
import os
import threading
from functools import partial

import numpy as np

# A product takes one thread per this many entries, up to one per usable
# CPU. On a 2-core host, the six products of a GCN epoch (four 64- and two
# 10-column) took 15.2 ms on one thread and 14.2 ms on two at 8.7k
# entries, 23.1 vs 19.0 ms at 13k and 60.8 vs 37.9 ms at 35k. The toy
# graph's largest product (2,574 entries) stays on one range.
RANGE_MIN_ENTRIES = 8192

# A matrix with at most this many cells (rows x cols) per stored entry is
# multiplied densely. On a 2-core host with one BLAS thread, random graphs
# of average degree 10 and 64 columns: at 170 rows (16 cells per entry)
# dense took 0.080 ms and step-major 0.245 ms; at 400 rows (37) they were
# even; at 800 rows (73) dense was 2x slower, and at 3,200 rows 11x.
DENSE_CELLS_PER_ENTRY = 32

# A 10k-row 64-column product on a 2-core VM that other guests shared, 8
# interleaved rounds: one static half per thread was slower than one
# thread in 2 rounds (65.9 vs 56.2 ms); two ranges per thread, taken in
# turn, beat the static halves in 6. A running range's scratch is about
# 2 / PIECES_PER_THREAD of the output: 4 held 1.56 outputs, 2 held 2.05,
# and 4 was faster in 7 of 8 rounds (median 9.6 vs 10.6 ms).
PIECES_PER_THREAD = 4


# A thread running one of neural.train_jobs' jobs holds that job's share
# of the CPUs here, so side-by-side jobs do not each start a thread per CPU.
_SHARE = threading.local()


def _usable_cpus():
    """The CPUs this thread's products and masks may split over: its job's
    share under neural.train_jobs, else the process's CPU affinity."""
    share = getattr(_SHARE, "cpus", None)
    if share is not None:
        return share
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on macOS or Windows
        return os.cpu_count() or 1


# The names OpenBLAS builds export their thread count under; numpy's wheels
# bundle scipy-openblas, which adds a prefix and a suffix.
_OPENBLAS_THREADS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _blas_threads():
    """How many threads one BLAS product may run on: the count an OpenBLAS
    loaded in this process reports (found through /proc, so on Linux),
    else every usable CPU, as MKL, Accelerate or an unfound OpenBLAS may
    take."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
    except OSError:  # no /proc
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)  # already loaded by numpy: no second copy
        for name in _OPENBLAS_THREADS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return max(1, getter())
    return _usable_cpus()


def _compute_dtype(array):
    """The dtype products and training compute in for this array's
    values: float32 when it is float32, else float64."""
    return np.dtype(np.float32 if np.asarray(array).dtype == np.float32 else np.float64)


def _range_count(work, per_range):
    """How many ranges to cut work into: one thread per usable CPU, each
    holding at least per_range of work, and PIECES_PER_THREAD ranges per
    thread when there is more than one."""
    threads = min(_usable_cpus(), work // per_range)
    return PIECES_PER_THREAD * threads if threads > 1 else 1


def _run_ranges(fill, ranges, workers=None):
    """fill(*args) for each args in ranges, on the calling thread and one
    more thread per other usable CPU (or up to `workers` threads in all),
    up to one per range. Each thread takes the next range not yet taken, so
    a thread whose CPU is busy elsewhere holds the call up by one range at
    most. Once a range raises (KeyboardInterrupt included), no further
    range starts. Returns once every thread has been joined, raising the
    error of the lowest-index range that raised."""
    pending = enumerate(ranges)
    lock = threading.Lock()
    errors = {}  # range index -> what it raised

    def run():
        while True:
            with lock:
                index, args = (None, None) if errors else next(pending, (None, None))
            if index is None:
                return
            try:
                fill(*args)
            except BaseException as exc:  # raised again on the calling thread
                with lock:
                    errors[index] = exc

    count = min(workers or _usable_cpus(), len(ranges)) - 1
    threads = [threading.Thread(target=run) for _ in range(count)]
    for thread in threads:
        thread.start()
    try:
        run()
    finally:
        with lock:  # an interrupt outside fill must not leave ranges to start
            pending = iter(())
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def _steps(indptr, indices, data):
    """The degree order and step-major chunks of the rows indptr spans."""
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


def csr_plan(indptr, indices, data, n_cols):
    """How ``csr_matmul`` multiplies an (n_rows x n_cols) CSR matrix.

    A matrix with at most ``DENSE_CELLS_PER_ENTRY`` cells per entry plans
    as itself, densified: an (n_rows, n_cols) array whose repeated column
    ids add up in index order. Any other plans as its row ranges, each
    with its degree order and step-major entries.

    Step-major plans are a list of ``(lo, order, chunks)``, one per range of rows
    ``lo .. lo + len(order)``: ``_range_count(nnz, RANGE_MIN_ENTRIES)``
    contiguous ranges of about equal entry counts (a range may be empty).
    ``order`` sorts the range's rows by degree, most entries first
    (stable), as offsets from ``lo``. Each chunk is ``(cols, vals,
    widths)`` for a run of consecutive steps: step j holds the j-th entry
    of the first ``widths[j]`` rows of ``order``, and ``cols`` / ``vals``
    hold the column ids and values of those steps one after the other,
    each step in row order. A chunk holds at most as many entries as the
    range has rows, or one step when a step is wider.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.asarray(data, dtype=_compute_dtype(data))
    nnz = int(indptr[-1])
    n_rows = len(indptr) - 1
    if n_rows * n_cols <= DENSE_CELLS_PER_ENTRY * nnz:
        matrix = np.zeros((n_rows, n_cols), dtype=data.dtype)
        np.add.at(matrix, (np.repeat(np.arange(n_rows), np.diff(indptr)), indices), data)
        return matrix
    ranges = _range_count(nnz, RANGE_MIN_ENTRIES)
    cuts = np.searchsorted(indptr, np.arange(1, ranges) * nnz // ranges)
    bounds = [0, *cuts.tolist(), len(indptr) - 1]
    return [
        (lo, *_steps(indptr[lo:hi + 1], indices, data))
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _range_product(dense, out, lo, order, chunks):
    """Rows lo .. lo + len(order) of the product, into out. The range's
    accumulator and one chunk's gather are its only scratch."""
    acc = np.zeros((len(order), dense.shape[1]), dtype=dense.dtype)
    for cols, vals, widths in chunks:
        # np.take gathers rows faster than dense[cols], most of all on two
        # threads; with out= and mode="raise" it gathers into a temporary.
        terms = np.take(dense, cols, axis=0)
        terms *= vals[:, None]
        off = 0
        for width in widths:
            acc[:width] += terms[off:off + width]
            off += width
        del terms  # before the next chunk's gather
    out[lo:lo + len(order)][order] = acc


def csr_matmul(indptr, indices, data, dense, plan=None):
    """Sparse (CSR) @ dense product, (n_rows x n_cols), in data's compute
    dtype (float32 for float32 data, else float64).

    ``plan`` is ``csr_plan(indptr, indices, data, n_cols)``; when not
    given, it is built here with n_cols ``len(dense)``. A dense plan is one
    BLAS product; step-major ranges run on threads joined before this
    returns.
    """
    dense = np.asarray(dense, dtype=_compute_dtype(data))
    if dense.ndim != 2:
        raise ValueError("dense operand must be 2-D")
    if plan is None:
        plan = csr_plan(indptr, indices, data, len(dense))
    if isinstance(plan, np.ndarray):
        return plan @ dense[:plan.shape[1]]
    out = np.empty((len(indptr) - 1, dense.shape[1]), dtype=dense.dtype)
    _run_ranges(partial(_range_product, dense, out), plan)
    return out
