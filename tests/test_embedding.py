import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tagaug
from tagaug import embedding
from tagaug.embedding import (
    _TOKEN_RE,
    _token_hash,
    class_centroids,
    cosine_matrix,
    cosine_similarity,
    encode_hashing,
    knn_embedding,
    knn_same_class,
)


def per_token_hashing(texts, dim):
    """Oracle: hash every token occurrence and normalize row by row."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for i, text in enumerate(texts):
        for token in _TOKEN_RE.findall(text.lower()):
            h = _token_hash(token)
            out[i, h % dim] += -1.0 if (h >> 63) & 1 else 1.0
        norm = np.linalg.norm(out[i])
        if norm > 0:
            out[i] /= norm
    return out


# repeated, mixed-case and non-ASCII word tokens, blanks and punctuation
hashing_texts = st.lists(
    st.lists(
        st.sampled_from(["graph", "Graph", "GRAPH", "node", "Über", "über", "東京", "x1", "_"])
        | st.text(alphabet="abcÄßé東 .,-", max_size=6),
        max_size=12,
    ).map(" ".join),
    max_size=8,
)


class TestHashingEncoder:
    def test_deterministic(self):
        texts = ["Graph neural networks", "hello world", ""]
        a = encode_hashing(texts, 64)
        b = encode_hashing(texts, 64)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_identical_texts_identical_rows(self):
        emb = encode_hashing(["same text here", "same text here"], 32)
        np.testing.assert_array_equal(emb.vectors[0], emb.vectors[1])

    def test_empty_text_is_zero(self):
        emb = encode_hashing(["", "   ", "word"], 16)
        assert np.all(emb.vectors[0] == 0)
        assert np.all(emb.vectors[1] == 0)
        assert np.linalg.norm(emb.vectors[2]) == pytest.approx(1.0)

    def test_bag_of_tokens_symmetry(self):
        emb = encode_hashing(["a b", "b a"], 16)
        np.testing.assert_array_equal(emb.vectors[0], emb.vectors[1])

    def test_rows_unit_or_zero(self):
        emb = encode_hashing(["x", "y z", "", "a a a"], 16)
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.all((np.abs(norms - 1) < 1e-12) | (norms == 0))

    @settings(max_examples=200, deadline=None)
    @given(hashing_texts, st.sampled_from([8, 13, 256]))
    @example(["", "a a a A", "", "Ää ää"], 13)
    def test_bits_match_per_token_loop(self, texts, dim):
        got = encode_hashing(texts, dim).vectors
        assert got.tobytes() == per_token_hashing(texts, dim).tobytes()

    # Blocks of 1 to 3 texts: a block of empty or token-less texts only, a
    # last block cut short, and a text count that is a multiple of the block.
    @pytest.mark.parametrize("block", [1, 2, 3])
    @settings(max_examples=100, deadline=None)
    @given(texts=hashing_texts, dim=st.sampled_from([8, 13, 256]))
    @example(texts=[], dim=8)
    @example(texts=["", "", ""], dim=16)
    @example(texts=["", "", "a b", "b"], dim=8)
    @example(texts=["", " .,", "", "x", "x X", "東京"], dim=13)
    @example(texts=["a a", "-", "", "", "", "", "a"], dim=8)
    def test_bits_match_per_token_loop_at_any_block(self, block, texts, dim):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding, "_HASH_BLOCK", block)
            got = encode_hashing(texts, dim).vectors
        assert got.tobytes() == per_token_hashing(texts, dim).tobytes()

    def test_peak_memory_does_not_grow_with_the_text_count(self, monkeypatch):
        # Beyond twice the output, the peak is one block's tokens: their
        # strings, codes and bincount arrays, under 128 bytes each. Counting
        # 4 blocks' texts at once must break the bound.
        per_text, dim = 64, 8
        words = [f"w{i}" for i in range(50)]

        def texts(n):
            return [" ".join(words[(i + j) % 50] for j in range(per_text)) for i in range(n)]

        def peak(n):
            batch = texts(n)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = encode_hashing(batch, dim).vectors
                return tracemalloc.get_traced_memory()[1] - before - 2 * out.nbytes
            finally:
                tracemalloc.stop()

        encode_hashing(texts(2), dim)  # first-call allocations stay out of the peak
        n = 1024  # _HASH_BLOCK's value
        allowance = 128 * n * per_text
        assert peak(n) < allowance
        assert peak(4 * n) < allowance
        monkeypatch.setattr(embedding, "_HASH_BLOCK", 4 * n)
        assert peak(4 * n) > allowance

    def test_peak_is_the_output_and_one_block(self):
        # At dim 256 with three tokens a text, one block's counts and norm
        # squares take 2 * 1024 * 256 * 8 bytes, a quarter of 8 blocks'
        # output. Normalizing the whole output at once holds a copy of it.
        n, dim = 8 * embedding._HASH_BLOCK, 256
        texts = [f"w{i % 97} v{i % 13} u{i}" for i in range(n)]
        encode_hashing(texts[:2], dim)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = encode_hashing(texts, dim).vectors
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            encode_hashing(["x"], 4)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=30), min_size=1, max_size=5))
    def test_pure_function_of_text(self, texts):
        a = encode_hashing(texts, 32).vectors
        b = encode_hashing(list(texts), 32).vectors
        np.testing.assert_array_equal(a, b)


class TestCosine:
    def test_identical_unit_vector(self):
        v = np.array([0.6, 0.8])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_negation(self):
        v = np.array([0.3, -0.4, 0.5])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_zero_norm_gives_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity([1.0], [1.0, 2.0])

    # the 1e200 example overflows inside np.linalg.norm before the rescale
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.lists(st.floats(-10, 10), min_size=3, max_size=3),
        st.floats(0.01, 100),
        st.floats(0.01, 100),
    )
    # squaring b's entries underflows: the norm came out 0 for b, subnormal for 4b
    @example(a=[0.0, 1.0, 0.0], b=[0.0, 4.3e-163, 0.0], alpha=1.0, beta=4.0)
    @example(a=[1.0, 0.0, 0.0], b=[1.1598279612055535e-158, 0.0, 0.0], alpha=1.0, beta=2.0)
    # squaring overflows: the norm came out inf
    @example(a=[1e200, 0.0, 0.0], b=[1e200, 0.0, 0.0], alpha=1.0, beta=1.0)
    def test_symmetric_and_scale_invariant(self, a, b, alpha, beta):
        a, b = np.array(a), np.array(b)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a))
        assert cosine_similarity(alpha * a, beta * b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-9
        )

    def test_ordinary_magnitudes_keep_plain_formula(self, rng):
        # the twin schedule ranks by these scores, so their last bit matters
        for scale in (1e-150, 1e-3, 1.0, 1e100, 1e150):
            a, b = rng.normal(size=(2, 8)) * scale
            plain = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert cosine_similarity(a, b) == float(plain)
            rows = rng.normal(size=(5, 8)) * scale
            unit = rows / np.linalg.norm(rows, axis=1)[:, None]
            np.testing.assert_array_equal(cosine_matrix(rows, rows[:3]), unit @ unit[:3].T)

    def test_tiny_rows_in_matrix(self):
        rows = np.array(
            [[0.0, 1.0, 0.0], [0.0, 4.3e-163, 0.0], [3e-160, -4e-160, 0.0], [0.0, 0.0, 0.0]]
        )
        sims = cosine_matrix(rows, rows)
        for i in range(4):
            for j in range(4):
                assert sims[i, j] == pytest.approx(cosine_similarity(rows[i], rows[j]), abs=1e-12)
        assert sims[0, 1] == pytest.approx(1.0)
        assert sims[2, 2] == pytest.approx(1.0)
        assert sims[1, 2] == pytest.approx(-0.8)
        assert not sims[3].any() and not sims[:, 3].any()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_huge_rows(self):
        assert cosine_similarity([1e200, 0.0], [1e200, 0.0]) == pytest.approx(1.0)
        assert cosine_matrix([[1e200, 0.0]], [[1e200, 1.0]])[0, 0] == pytest.approx(1.0)
        rows = np.array([[1e200, 0.0], [3e200, -4e200], [1e308, 1e308], [0.6, -0.8]])
        sims = cosine_matrix(rows, rows)
        for i in range(4):
            for j in range(4):
                assert sims[i, j] == pytest.approx(cosine_similarity(rows[i], rows[j]), abs=1e-12)
        assert sims[1, 3] == pytest.approx(1.0)
        assert sims[2, 2] == pytest.approx(1.0)


class FakeEmb:
    def __init__(self, vectors):
        self.vectors = np.asarray(vectors, dtype=np.float64)

    @property
    def dim(self):
        return self.vectors.shape[1]


class TestKnnSameClass:
    def test_k_zero(self, rng):
        emb = FakeEmb(rng.normal(size=(5, 3)))
        assert knn_same_class(0, 0, emb, [0] * 5, list(range(5))) == []

    def test_small_class_exhausts(self, rng):
        emb = FakeEmb(rng.normal(size=(5, 3)))
        labels = [0, 0, 1, 1, 1]
        assert knn_same_class(0, 3, emb, labels, list(range(5))) == [1]

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            n = 12
            emb = FakeEmb(rng.normal(size=(n, 4)))
            labels = list(rng.integers(3, size=n))
            anchor = int(rng.integers(n))
            k = int(rng.integers(1, 5))
            got = knn_same_class(anchor, k, emb, labels, list(range(n)))

            def cos(u, v):
                nu, nv = np.linalg.norm(u), np.linalg.norm(v)
                return float(u @ v / (nu * nv)) if nu and nv else 0.0

            scored = sorted(
                (
                    (-cos(emb.vectors[anchor], emb.vectors[j]), j)
                    for j in range(n)
                    if j != anchor and labels[j] == labels[anchor]
                ),
            )
            assert got == [j for _s, j in scored[:k]]

    def test_output_labels_and_length(self, rng):
        emb = FakeEmb(rng.normal(size=(20, 4)))
        labels = list(rng.integers(2, size=20))
        anchor = 0
        size = labels.count(labels[0])
        got = knn_same_class(anchor, 6, emb, labels, list(range(20)))
        assert all(labels[j] == labels[anchor] for j in got)
        assert len(got) == min(6, size - 1)

    def test_ranking_invariant_to_rescaling(self, rng):
        vectors = rng.normal(size=(10, 4))
        labels = [0] * 10
        base = knn_same_class(0, 4, FakeEmb(vectors), labels, list(range(10)))
        scales = rng.uniform(0.1, 5.0, size=(10, 1))
        scaled = knn_same_class(0, 4, FakeEmb(vectors * scales), labels, list(range(10)))
        assert base == scaled

    def test_knn_any_class(self, rng):
        emb = FakeEmb(np.eye(4))
        got = knn_embedding(0, 2, emb, [0, 1, 2, 3])
        assert got == [1, 2]  # all cosines tie at 0; lower id wins


class TestCentroids:
    def test_single_point_per_class(self):
        emb = FakeEmb([[1.0, 2.0], [3.0, 4.0]])
        cents = class_centroids(emb, [0, 1])
        np.testing.assert_array_equal(cents[0], [1.0, 2.0])
        np.testing.assert_array_equal(cents[1], [3.0, 4.0])

    def test_two_point_mean(self):
        emb = FakeEmb([[0.0, 0.0], [2.0, 2.0]])
        cents = class_centroids(emb, [0, 0])
        np.testing.assert_array_equal(cents[0], [1.0, 1.0])

    def test_matches_summation_oracle(self, rng):
        vectors = rng.normal(size=(20, 5))
        labels = list(rng.integers(3, size=20))
        labels[0], labels[1], labels[2] = 0, 1, 2
        cents = class_centroids(FakeEmb(vectors), labels)
        for cls in range(3):
            members = [i for i, lab in enumerate(labels) if lab == cls]
            oracle = sum(vectors[i] for i in members) / len(members)
            np.testing.assert_allclose(cents[cls], oracle, atol=1e-12)

    def test_absent_class_undefined(self):
        cents = class_centroids(FakeEmb([[1.0, 0.0]]), [0])
        assert cents.keys() == {0}
        with pytest.raises(KeyError):
            cents[3]


def test_local_runs_do_not_import_requests():
    # requests is loaded by the first remote call only; a fresh interpreter
    # shows what importing the pipeline and the CLI loads.
    src = os.path.dirname(os.path.dirname(tagaug.__file__))
    code = "import sys, tagaug.pipeline, tagaug.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
