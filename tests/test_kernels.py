import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagaug import kernels


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

