import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagaug import kernels
from tagaug.fixtures import make_toy_tag
from tagaug.graph import normalized_adjacency
from tagaug.neural import TrainConfig, TrainingDivergedError, train_classifier


def sequential_oracle(indptr, indices, data, dense):
    """Each row adds its entries one at a time, in index order, in dense's
    dtype."""
    out = np.zeros((len(indptr) - 1, dense.shape[1]), dtype=dense.dtype)
    for row in range(len(indptr) - 1):
        for j in range(indptr[row], indptr[row + 1]):
            out[row] += data[j] * dense[indices[j]]
    return out


@st.composite
def csr_operands(draw):
    """CSR operands with empty rows and repeated column indices allowed;
    shapes down to one row or one column."""
    n_rows = draw(st.integers(1, 9))
    n_cols = draw(st.integers(1, 7))
    width = draw(st.integers(1, 6))
    row_entries = [
        draw(st.lists(st.integers(0, n_cols - 1), max_size=8)) for _ in range(n_rows)
    ]
    indptr = np.cumsum([0] + [len(cols) for cols in row_entries]).astype(np.int64)
    indices = np.array([c for cols in row_entries for c in cols], dtype=np.int64)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=len(indices))
    dense = rng.normal(size=(n_cols, width))
    return indptr, indices, data, dense


def to_dense(indptr, indices, data, n_cols):
    out = np.zeros((len(indptr) - 1, n_cols))
    for row in range(len(indptr) - 1):
        for j in range(indptr[row], indptr[row + 1]):
            out[row, indices[j]] += data[j]
    return out


@contextmanager
def step_major():
    """Every plan built inside takes the step-major path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
        yield


def dense_plan(indptr, indices, data, n_cols):
    """csr_plan with the dense path taken whenever there is an entry."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 10**9)
        return kernels.csr_plan(indptr, indices, data, n_cols)


@settings(max_examples=200, deadline=None)
@given(csr_operands())
@example((np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), np.ones((2, 3))))
def test_csr_matmul_equals_sequential_index_order_sum(operands):
    indptr, indices, data, dense = operands
    with step_major():
        out = kernels.csr_matmul(indptr, indices, data, dense)
    assert out.dtype == np.float64
    assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


@pytest.mark.parametrize("dense", [np.ones(2), np.ones((2, 1, 1))], ids=["1-D", "3-D"])
def test_csr_matmul_refuses_a_dense_operand_that_is_not_2d(dense):
    indptr, indices, data = np.array([0, 1, 2]), np.array([0, 1]), np.ones(2)
    with pytest.raises(ValueError, match="dense operand must be 2-D"):
        kernels.csr_matmul(indptr, indices, data, dense)


@settings(max_examples=200, deadline=None)
@given(csr_operands())
def test_csr_matmul_matches_dense_oracle(operands):
    indptr, indices, data, dense = operands
    out = kernels.csr_matmul(indptr, indices, data, dense)
    want = to_dense(indptr, indices, data, dense.shape[0]) @ dense
    np.testing.assert_allclose(out, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(csr_operands())
def test_one_plan_serves_every_dense_width(operands):
    indptr, indices, data, dense = operands
    with step_major():
        plan = kernels.csr_plan(indptr, indices, data, dense.shape[0])
    rng = np.random.default_rng(len(indices))
    for width in (0, 1, 4, 64):
        dense = rng.normal(size=(dense.shape[0], width))
        out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        assert out.shape == (len(indptr) - 1, width)
        assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


def forced_plan(indptr, indices, data, n_cols, cpus):
    """The step-major csr_plan as on `cpus` usable CPUs, with no minimum
    range size."""
    with step_major(), pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_usable_cpus", lambda: cpus)
        mp.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
        return kernels.csr_plan(indptr, indices, data, n_cols)


@settings(max_examples=200, deadline=None)
@given(csr_operands(), st.integers(1, 4))
@example((np.array([0, 2]), np.array([0, 0]), np.array([0.5, -1.5]), np.ones((1, 1))), 4)
@example((np.array([0, 0, 3, 3]), np.array([1, 0, 1]), np.ones(3), np.ones((2, 1))), 3)
def test_split_product_equals_sequential_index_order_sum(operands, cpus):
    # More ranges than rows leaves some empty; rows may be empty too.
    indptr, indices, data, dense = operands
    plan = forced_plan(indptr, indices, data, dense.shape[0], cpus)
    threads = min(cpus, len(indices))
    assert len(plan) == (kernels.PIECES_PER_THREAD * threads if threads > 1 else 1)
    out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
    assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


def as_float32(operands):
    indptr, indices, data, dense = operands
    return indptr, indices, data.astype(np.float32), dense.astype(np.float32)


def float32_product_bound(indptr, indices, data, dense):
    """Per entry, gamma_k(u32) * (|A| @ |dense|), with k the row's entry
    count and gamma_k = k u / (1 - k u): the bound on any order of
    summation of the row's k products in float32 (u = 2**-24), BLAS's
    included. gamma_k(u64) more covers the float64 oracle's own rounding."""
    k = np.diff(indptr).astype(np.float64)[:, None]
    magnitude = to_dense(indptr, indices, np.abs(data.astype(np.float64)), dense.shape[0])
    magnitude = magnitude @ np.abs(dense.astype(np.float64))
    gamma = sum(k * u / (1 - k * u) for u in (2.0**-24, 2.0**-53))
    return gamma * magnitude


@settings(max_examples=200, deadline=None)
@given(csr_operands(), st.integers(1, 4))
@example((np.array([0, 3]), np.array([0, 1, 0]), np.array([1.0, 1e-8, -1.0]),
          np.array([[1.0], [1.0]])), 1)
def test_float32_product_is_within_its_bound_of_the_float64_oracle(operands, cpus):
    # Both paths, on float32 entries: step-major on one range or several,
    # and the densified matrix as one BLAS product.
    indptr, indices, data, dense = as_float32(operands)
    n_cols = dense.shape[0]
    want = to_dense(indptr, indices, data.astype(np.float64), n_cols) @ dense.astype(np.float64)
    bound = float32_product_bound(indptr, indices, data, dense)
    for plan in (forced_plan(indptr, indices, data, n_cols, cpus),
                 dense_plan(indptr, indices, data, n_cols)):
        out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        assert out.dtype == np.float32 and out.shape == want.shape
        assert np.all(np.abs(out.astype(np.float64) - want) <= bound)


@settings(max_examples=200, deadline=None)
@given(csr_operands(), st.integers(1, 4))
def test_float32_step_major_equals_float32_sequential_loop(operands, cpus):
    indptr, indices, data, dense = as_float32(operands)
    plan = forced_plan(indptr, indices, data, dense.shape[0], cpus)
    out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
    want = sequential_oracle(indptr, indices, data, dense)
    assert out.dtype == want.dtype == np.float32
    assert np.array_equal(out, want)


@pytest.mark.parametrize("path", ["dense", "step-major"])
def test_float32_adjacency_has_one_float32_plan(monkeypatch, path):
    if path == "step-major":
        monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
    graph = make_toy_tag(seed=2)
    adj64 = normalized_adjacency(graph)
    adj = normalized_adjacency(graph, dtype=np.float32)
    # the weights are the float64 weights, rounded
    assert adj.data.dtype == np.float32
    assert np.array_equal(adj.data, adj64.data.astype(np.float32))
    plans = [adj.plan] if path == "dense" else [vals for _lo, _order, chunks in adj.plan
                                               for _cols, vals, _widths in chunks]
    assert adj.plan is adj.plan and all(p.dtype == np.float32 for p in plans)
    dense = np.random.default_rng(1).normal(size=(adj.shape[0], 8))
    out = adj.matmul(dense)  # a float64 operand is cast to the plan's dtype
    assert out.dtype == np.float32
    assert np.array_equal(out, adj.matmul(dense.astype(np.float32)))


@pytest.mark.parametrize("cpus", [1, 2])
def test_product_scratch_is_per_running_range(monkeypatch, cpus):
    # A running range holds its accumulator and one chunk's gather, each at
    # most its rows x width, and the buffer numpy's broadcast multiply uses
    # (np.getbufsize() items). So a product peaks at its output plus that
    # for the largest ranges, one per thread; 0.02 of the output covers the
    # small arrays. With one accumulator for all rows and two gathers alive,
    # the peak read 2.92 outputs on 2 CPUs (4 ranges) and 3.85 on one.
    rng = np.random.default_rng(0)
    n, width = 4000, 64
    indptr = np.concatenate([[0], np.cumsum(rng.integers(0, 21, size=n))])
    indices = rng.integers(n, size=int(indptr[-1]))
    data = rng.normal(size=len(indices))
    dense = rng.normal(size=(n, width))
    plan = forced_plan(indptr, indices, data, n, cpus)
    assert len(plan) == (kernels.PIECES_PER_THREAD * cpus if cpus > 1 else 1)
    running = sorted(len(order) for _lo, order, _chunks in plan)[-cpus:]
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= (1.02 * n + 2 * sum(running)) * width * 8 + cpus * np.getbufsize() * 8


def check_plan_chunks(indptr, plan):
    """The ranges tile the rows in order. In each, every entry appears
    once and no chunk exceeds max(the range's rows, its widest step)."""
    indptr = np.asarray(indptr)
    his = [lo for lo, _order, _chunks in plan[1:]] + [len(indptr) - 1]
    assert plan[0][0] == 0
    for (lo, order, chunks), hi in zip(plan, his):
        n_rows = hi - lo
        degree = np.diff(indptr[lo:hi + 1])
        assert sorted(order.tolist()) == list(range(n_rows))
        assert np.all(np.diff(degree[order]) <= 0)
        widths = [w for _cols, _vals, ws in chunks for w in ws]
        cap = max([n_rows, *widths])
        for cols, vals, ws in chunks:
            assert len(cols) == len(vals) == sum(ws) <= cap
        assert sum(widths) == indptr[hi] - indptr[lo]
        # step j covers the range's rows that have a j-th entry
        assert widths == [int(np.sum(degree > j)) for j in range(len(widths))]


@settings(max_examples=100, deadline=None)
@given(csr_operands(), st.integers(1, 4))
def test_plan_chunks_are_capped(operands, cpus):
    indptr, indices, data, dense = operands
    with step_major():
        check_plan_chunks(indptr, kernels.csr_plan(indptr, indices, data, dense.shape[0]))
    check_plan_chunks(indptr, forced_plan(indptr, indices, data, dense.shape[0], cpus))


def test_plan_ranges_hold_about_equal_entries(monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
    degree = np.random.default_rng(0).integers(0, 9, size=5000)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    nnz = int(indptr[-1])
    indices, data = np.zeros(nnz, dtype=np.int64), np.ones(nnz)
    # one thread per RANGE_MIN_ENTRIES entries, at most one per usable
    # CPU, and PIECES_PER_THREAD ranges per thread
    pieces = kernels.PIECES_PER_THREAD
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", nnz // 2 + 1)
    assert len(kernels.csr_plan(indptr, indices, data, 1)) == 1
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", nnz // 2)
    assert len(kernels.csr_plan(indptr, indices, data, 1)) == 2 * pieces
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
    plan = kernels.csr_plan(indptr, indices, data, 1)
    assert len(plan) == 3 * pieces
    check_plan_chunks(indptr, plan)
    los = [lo for lo, _order, _chunks in plan] + [len(degree)]
    for lo, hi in zip(los, los[1:]):
        assert abs(int(indptr[hi] - indptr[lo]) - nnz / len(plan)) <= degree.max()


def test_toy_adjacency_plan_is_cached_and_capped(monkeypatch):
    monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
    adj = normalized_adjacency(make_toy_tag(seed=2))
    assert adj.plan is adj.plan
    check_plan_chunks(adj.indptr, adj.plan)
    assert len(adj.plan) == 1  # 1,836 entries stay on one range
    assert len(adj.plan[0][2]) > 1  # and need several chunks over 170 rows
    dense = np.random.default_rng(1).normal(size=(adj.shape[0], 8))
    assert np.array_equal(
        adj.matmul(dense), sequential_oracle(adj.indptr, adj.indices, adj.data, dense)
    )


@settings(max_examples=200, deadline=None)
@given(csr_operands())
@example((np.array([0, 2]), np.array([0, 0]), np.array([0.1, 0.2]), np.ones((3, 2))))
def test_dense_product_is_blas_on_the_densified_matrix(operands):
    # n_cols is dense's row count, often above the largest column id.
    indptr, indices, data, dense = operands
    n_cols = dense.shape[0]
    plan = dense_plan(indptr, indices, data, n_cols)
    # a matrix with no entries has no cells-per-entry bound: step-major
    assert isinstance(plan, np.ndarray) == (len(indices) > 0)
    rng = np.random.default_rng(len(indices))
    for width in (0, 1, 4, 64):
        dense = rng.normal(size=(n_cols, width))
        out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        assert out.dtype == np.float64 and out.shape == (len(indptr) - 1, width)
        assert np.array_equal(out, to_dense(indptr, indices, data, n_cols) @ dense)
        np.testing.assert_allclose(
            out, sequential_oracle(indptr, indices, data, dense), rtol=1e-12, atol=1e-12
        )


@settings(max_examples=100, deadline=None)
@given(csr_operands())
def test_product_reads_no_row_beyond_the_column_count(operands):
    indptr, indices, data, dense = operands
    n_cols = dense.shape[0]
    padded = np.vstack([dense, np.full((2, dense.shape[1]), np.nan)])
    with step_major():
        plans = [kernels.csr_plan(indptr, indices, data, n_cols)]
    plans.append(dense_plan(indptr, indices, data, n_cols))
    for plan in plans:
        want = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        out = kernels.csr_matmul(indptr, indices, data, padded, plan=plan)
        assert np.array_equal(out, want)


def test_toy_adjacency_takes_the_dense_path():
    adj = normalized_adjacency(make_toy_tag(seed=2))  # 170 rows, 1,836 entries
    assert isinstance(adj.plan, np.ndarray) and adj.plan is adj.plan
    assert np.array_equal(adj.plan, adj.todense())
    dense = np.random.default_rng(1).normal(size=(adj.shape[0], 8))
    assert np.array_equal(adj.matmul(dense), adj.todense() @ dense)


def test_benchmark_10k_graph_stays_step_major():
    # pipebench's wiring_10k graph: sample_tag at LARGE_CLASS_SIZES, seed 1
    path = Path(__file__).resolve().parents[1] / "pipebench" / "sampler.py"
    spec = importlib.util.spec_from_file_location("pipebench_sampler", path)
    sampler = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sampler)
    graph, _parents = sampler.sample_tag((1400,) * 5 + (600,) * 5, seed=1)
    adj = normalized_adjacency(graph)
    assert adj.shape == (10_000, 10_000) and len(adj.indices) == 103_794
    assert isinstance(adj.plan, list)
    check_plan_chunks(adj.indptr, adj.plan)


def test_non_finite_entry_reaches_every_row_of_a_dense_product():
    adj = normalized_adjacency(make_toy_tag(seed=2))
    dense = np.ones((adj.shape[0], 2))
    dense[5, 0] = np.inf
    reads = adj.todense()[:, 5] != 0
    assert 0 < reads.sum() < adj.shape[0]
    with np.errstate(invalid="ignore"):
        dense_out = adj.matmul(dense)
    with step_major():
        sparse_out = kernels.csr_matmul(adj.indptr, adj.indices, adj.data, dense)
    # 0 x inf is NaN, so the dense path spoils the rows that do not read it
    assert not np.isfinite(dense_out[:, 0]).any()
    assert np.array_equal(~np.isfinite(sparse_out[:, 0]), reads)
    np.testing.assert_allclose(dense_out[:, 1], sparse_out[:, 1], rtol=1e-12)


@pytest.mark.parametrize("path", ["dense", "step-major"])
def test_gcn_with_a_nan_feature_row_diverges(monkeypatch, path):
    if path == "step-major":
        monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
    graph = make_toy_tag(seed=2)
    adj = normalized_adjacency(graph)
    assert isinstance(adj.plan, np.ndarray) == (path == "dense")
    features = np.random.default_rng(0).normal(size=(graph.node_count, 8))
    train_idx = np.arange(0, graph.node_count, 3)
    features[train_idx[0]] = np.nan
    cfg = TrainConfig(epochs=3, dropout=0.5, hidden_dims=(8,), seed=0)
    with pytest.raises(TrainingDivergedError, match="epoch 0"):
        train_classifier(features, graph.labels, train_idx, cfg, kind="gcn", adjacency=adj)


def test_lowest_range_error_is_raised_and_no_later_range_starts(monkeypatch):
    # On one CPU the ranges run in order on the calling thread.
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 1)
    done = []

    def fill(i):
        if i == 1:
            raise MemoryError("range 1")
        done.append(i)

    with pytest.raises(MemoryError, match="range 1"):
        kernels._run_ranges(fill, [(0,), (1,), (2,), (3,)])
    assert done == [0]

    # On two, range 0 raises after range 1 has, and its error is the one raised.
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    range_1_raised = threading.Event()

    def fill_both(i):
        if i == 1:
            range_1_raised.set()
            raise MemoryError("range 1")
        assert range_1_raised.wait(10)
        raise ValueError("range 0")

    before = threading.active_count()
    with pytest.raises(ValueError, match="range 0"):
        kernels._run_ranges(fill_both, [(0,), (1,)])
    assert threading.active_count() == before


def test_blas_threads_reads_the_openblas_numpy_loaded():
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    probe = "from tagaug import kernels; print(kernels._blas_threads())"
    # OpenBLAS takes no more threads than the CPUs it may use.
    for threads in range(1, min(2, len(os.sched_getaffinity(0))) + 1):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        assert int(out) == threads
