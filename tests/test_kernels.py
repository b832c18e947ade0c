import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagaug import kernels
from tagaug.fixtures import make_toy_tag
from tagaug.graph import normalized_adjacency


def sequential_oracle(indptr, indices, data, dense):
    """Each row adds its entries one at a time, in index order."""
    out = np.zeros((len(indptr) - 1, dense.shape[1]))
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


@settings(max_examples=200, deadline=None)
@given(csr_operands())
@example((np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0), np.ones((2, 3))))
def test_csr_matmul_equals_sequential_index_order_sum(operands):
    indptr, indices, data, dense = operands
    out = kernels.csr_matmul(indptr, indices, data, dense)
    assert out.dtype == np.float64
    assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


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
    plan = kernels.csr_plan(indptr, indices, data)
    rng = np.random.default_rng(len(indices))
    for width in (0, 1, 4, 64):
        dense = rng.normal(size=(dense.shape[0], width))
        out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
        assert out.shape == (len(indptr) - 1, width)
        assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


def forced_plan(indptr, indices, data, cpus):
    """csr_plan as on `cpus` usable CPUs, with no minimum range size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_usable_cpus", lambda: cpus)
        mp.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
        return kernels.csr_plan(indptr, indices, data)


@settings(max_examples=200, deadline=None)
@given(csr_operands(), st.integers(1, 4))
@example((np.array([0, 2]), np.array([0, 0]), np.array([0.5, -1.5]), np.ones((1, 1))), 4)
@example((np.array([0, 0, 3, 3]), np.array([1, 0, 1]), np.ones(3), np.ones((2, 1))), 3)
def test_split_product_equals_sequential_index_order_sum(operands, cpus):
    # More ranges than rows leaves some empty; rows may be empty too.
    indptr, indices, data, dense = operands
    plan = forced_plan(indptr, indices, data, cpus)
    threads = min(cpus, len(indices))
    assert len(plan) == (kernels.PIECES_PER_THREAD * threads if threads > 1 else 1)
    out = kernels.csr_matmul(indptr, indices, data, dense, plan=plan)
    assert np.array_equal(out, sequential_oracle(indptr, indices, data, dense))


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
    indptr, indices, data, _dense = operands
    check_plan_chunks(indptr, kernels.csr_plan(indptr, indices, data))
    check_plan_chunks(indptr, forced_plan(indptr, indices, data, cpus))


def test_plan_ranges_hold_about_equal_entries(monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 3)
    degree = np.random.default_rng(0).integers(0, 9, size=5000)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    nnz = int(indptr[-1])
    indices, data = np.zeros(nnz, dtype=np.int64), np.ones(nnz)
    # one range per RANGE_MIN_ENTRIES entries, at most one per usable CPU
    # one thread per RANGE_MIN_ENTRIES entries, at most one per usable
    # CPU, and PIECES_PER_THREAD ranges per thread
    pieces = kernels.PIECES_PER_THREAD
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", nnz // 2 + 1)
    assert len(kernels.csr_plan(indptr, indices, data)) == 1
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", nnz // 2)
    assert len(kernels.csr_plan(indptr, indices, data)) == 2 * pieces
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
    plan = kernels.csr_plan(indptr, indices, data)
    assert len(plan) == 3 * pieces
    check_plan_chunks(indptr, plan)
    los = [lo for lo, _order, _chunks in plan] + [len(degree)]
    for lo, hi in zip(los, los[1:]):
        assert abs(int(indptr[hi] - indptr[lo]) - nnz / len(plan)) <= degree.max()


def test_toy_adjacency_plan_is_cached_and_capped():
    adj = normalized_adjacency(make_toy_tag(seed=2))
    assert adj.plan is adj.plan
    check_plan_chunks(adj.indptr, adj.plan)
    assert len(adj.plan) == 1  # 1,836 entries stay on one range
    assert len(adj.plan[0][2]) > 1  # and need several chunks over 170 rows
    dense = np.random.default_rng(1).normal(size=(adj.shape[0], 8))
    assert np.array_equal(
        adj.matmul(dense), sequential_oracle(adj.indptr, adj.indices, adj.data, dense)
    )


def test_range_error_is_raised_after_every_range_ran(monkeypatch):
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: 2)
    done = []

    def fill(i):
        if i == 1:
            raise MemoryError("range 1")
        done.append(i)

    before = threading.active_count()
    with pytest.raises(MemoryError, match="range 1"):
        kernels._run_ranges(fill, [(0,), (1,), (2,), (3,)])
    assert sorted(done) == [0, 2, 3]
    assert threading.active_count() == before
