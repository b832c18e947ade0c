import numpy as np
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


def check_plan_chunks(indptr, plan):
    """Every entry appears once; no chunk exceeds max(n_rows, widest step)."""
    n_rows = len(indptr) - 1
    degree = np.diff(indptr)
    order, chunks = plan
    assert sorted(order.tolist()) == list(range(n_rows))
    assert np.all(np.diff(degree[order]) <= 0)
    widths = [w for _cols, _vals, ws in chunks for w in ws]
    cap = max([n_rows, *widths])
    for cols, vals, ws in chunks:
        assert len(cols) == len(vals) == sum(ws) <= cap
    assert sum(widths) == indptr[-1]
    # step j covers the rows that have a j-th entry
    assert widths == [int(np.sum(degree > j)) for j in range(len(widths))]


@settings(max_examples=100, deadline=None)
@given(csr_operands())
def test_plan_chunks_are_capped(operands):
    indptr, indices, data, _dense = operands
    check_plan_chunks(indptr, kernels.csr_plan(indptr, indices, data))


def test_toy_adjacency_plan_is_cached_and_capped():
    adj = normalized_adjacency(make_toy_tag(seed=2))
    assert adj.plan is adj.plan
    check_plan_chunks(adj.indptr, adj.plan)
    assert len(adj.plan[1]) > 1  # 1,836 entries over 170 rows need several chunks
    dense = np.random.default_rng(1).normal(size=(adj.shape[0], 8))
    assert np.array_equal(
        adj.matmul(dense), sequential_oracle(adj.indptr, adj.indices, adj.data, dense)
    )
