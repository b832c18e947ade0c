from dataclasses import replace

import numpy as np
import pytest

from tagaug.baselines import mixup_interpolate, numeric_augment, smote_interpolate
from tagaug.embedding import EmbeddingMatrix
from tagaug.generation import find_vicinal_twins
from tagaug.graph import LongTailSplit


def split_for(labels, tail_classes, head_count=20):
    return LongTailSplit(
        train_idx=tuple(range(len(labels))),
        val_idx=(),
        test_idx=(),
        tail_classes=frozenset(tail_classes),
        head_count=head_count,
        imbalance_ratio=0.1,
    )


def emb_of(rows):
    return EmbeddingMatrix(vectors=np.asarray(rows, dtype=np.float64), encoder_id="t")


def oversample_mode(emb, labels, extra_counts):
    """numeric_augment's oversample mode with every node in train; returns
    (rows, labels, source ids)."""
    split = split_for(labels, set(extra_counts))
    rows, out_labels, pairs = numeric_augment(
        emb, labels, split, "oversample", 3, extra_counts, seed=0
    )
    return rows, out_labels, [anchor for anchor, _ in pairs]


class TestOversample:
    def test_single_member_class(self):
        emb = emb_of([[1.0, 2.0], [9.0, 9.0]])
        rows, out_labels, sources = oversample_mode(emb, [0, 1], {0: 2})
        np.testing.assert_array_equal(rows, [[1.0, 2.0], [1.0, 2.0]])
        assert list(out_labels) == [0, 0]
        assert sources == [0, 0]

    def test_target_equal_current_is_empty(self):
        emb = emb_of([[1.0], [2.0]])
        rows, out_labels, _ = oversample_mode(emb, [0, 1], {0: 0})
        assert rows.shape[0] == 0 and len(out_labels) == 0

    def test_round_robin_enumeration_oracle(self):
        emb = emb_of([[1.0], [2.0], [5.0]])
        rows, _, sources = oversample_mode(emb, [0, 0, 1], {0: 3})
        assert sources == [0, 1, 0]
        np.testing.assert_array_equal(rows.ravel(), [1.0, 2.0, 1.0])

    def test_copies_bit_identical(self, rng):
        vals = rng.normal(size=(4, 6))
        rows, _, sources = oversample_mode(emb_of(vals), [0, 0, 1, 1], {0: 4})
        for row, src in zip(rows, sources):
            np.testing.assert_array_equal(row, vals[src])

    def test_equals_anchor_copies_on_variant_o_schedule(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 14))
            labels = [int(c) for c in rng.integers(3, size=n)]
            labels[:3] = [0, 1, 2]
            tails = {int(c) for c in rng.choice(3, size=int(rng.integers(1, 3)), replace=False)}
            # the last node stays out of train; nodes 0-2 keep every class in it
            split = replace(split_for(labels, tails), train_idx=tuple(range(n - 1)))
            extra = {cls: int(rng.integers(0, 9)) for cls in tails}
            emb = emb_of(rng.normal(size=(n, 3)))
            rows, out_labels, pairs = numeric_augment(
                emb, labels, split, "oversample", 2, extra, seed=int(rng.integers(99))
            )
            schedule = find_vicinal_twins(split, emb, labels, 2, extra, "O")
            assert pairs == [(p.anchor, p.partner) for p in schedule]
            assert all(p.is_self() for p in schedule)
            assert list(out_labels) == [p.label for p in schedule]
            assert rows.shape == (len(schedule), 3)
            for row, p in zip(rows, schedule):
                np.testing.assert_array_equal(row, emb.vectors[p.anchor])


class TestSmote:
    def test_lambda_zero(self):
        np.testing.assert_array_equal(
            smote_interpolate([1.0, 2.0], [5.0, 6.0], 0.0), [1.0, 2.0]
        )

    def test_lambda_one(self):
        np.testing.assert_array_equal(
            smote_interpolate([1.0, 2.0], [5.0, 6.0], 1.0), [5.0, 6.0]
        )

    def test_quarter_point(self):
        np.testing.assert_allclose(
            smote_interpolate([0.0, 0.0], [2.0, 2.0], 0.25), [0.5, 0.5]
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            smote_interpolate([1.0], [1.0, 2.0], 0.5)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            smote_interpolate([1.0], [2.0], 1.5)

    def test_collinearity_identity(self, rng):
        for _ in range(100):
            x_i = rng.normal(size=5)
            x_k = rng.normal(size=5)
            lam = float(rng.uniform())
            x_new = smote_interpolate(x_i, x_k, lam)
            lhs = np.linalg.norm(x_new - x_i) + np.linalg.norm(x_new - x_k)
            assert lhs == pytest.approx(np.linalg.norm(x_i - x_k), abs=1e-9)

    def test_coordinates_within_pair_interval(self, rng):
        x_i, x_k = rng.normal(size=4), rng.normal(size=4)
        x_new = smote_interpolate(x_i, x_k, float(rng.uniform()))
        lo, hi = np.minimum(x_i, x_k), np.maximum(x_i, x_k)
        assert np.all(x_new >= lo - 1e-12) and np.all(x_new <= hi + 1e-12)


class TestMixup:
    def test_lambda_one_returns_first(self):
        x, y, hard = mixup_interpolate([1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], 1.0)
        np.testing.assert_array_equal(x, [1.0, 0.0])
        np.testing.assert_array_equal(y, [1.0, 0.0])
        assert hard == 0

    def test_half_ties_to_anchor(self):
        _, y, hard = mixup_interpolate([1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], 0.5)
        np.testing.assert_array_equal(y, [0.5, 0.5])
        assert hard == 0

    def test_beta_one_is_uniform(self):
        # anchor e1 and its only partner e2: each row's first coordinate is its lambda
        emb = emb_of([[1.0, 0.0], [0.0, 1.0]])
        labels = [0, 1]
        rows, _, pairs = numeric_augment(
            emb, labels, split_for(labels, {0}), "mixup", 1, {0: 1000}, seed=123
        )
        assert set(pairs) == {(0, 1)}
        lams = rows[:, 0]
        np.testing.assert_array_equal(
            lams, np.random.default_rng(123).beta(1.0, 1.0, size=1000)
        )
        assert np.mean(lams) == pytest.approx(0.5, abs=0.05)
        assert np.quantile(lams, [0.25, 0.75]) == pytest.approx([0.25, 0.75], abs=0.05)


def convex_hull_2d(points):
    """Andrew's monotone chain; returns hull vertices in ccw order."""
    pts = sorted(map(tuple, points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def in_hull_2d(point, hull, tol=1e-9):
    if len(hull) == 1:
        return np.allclose(point, hull[0], atol=tol)
    if len(hull) == 2:
        a, b = np.array(hull[0]), np.array(hull[1])
        ab = b - a
        t = np.dot(point - a, ab) / np.dot(ab, ab)
        return -tol <= t <= 1 + tol and np.linalg.norm(a + t * ab - point) <= tol
    for i in range(len(hull)):
        o = np.array(hull[i])
        a = np.array(hull[(i + 1) % len(hull)])
        cross = (a[0] - o[0]) * (point[1] - o[1]) - (a[1] - o[1]) * (point[0] - o[0])
        if cross < -tol:
            return False
    return True


class TestNumericAugment:
    def setup_case(self, rng, n_per=5):
        rows = np.vstack(
            [
                rng.normal(size=(n_per, 2)) + [4.0, 0.0],
                rng.normal(size=(n_per, 2)) - [4.0, 0.0],
            ]
        )
        labels = [0] * n_per + [1] * n_per
        return emb_of(rows), labels, split_for(labels, {0}, head_count=9)

    def test_count_matches_pair_schedule(self, rng):
        emb, labels, split = self.setup_case(rng)
        targets = {0: 4}
        pairs = find_vicinal_twins(split, emb, labels, 3, targets, "S")
        rows, out_labels, out_pairs = numeric_augment(
            emb, labels, split, "smote", 3, targets, seed=0
        )
        assert len(rows) == len(pairs) == 4
        assert out_pairs == [(p.anchor, p.partner) for p in pairs]
        assert all(lab == 0 for lab in out_labels)

    def test_smote_rows_collinear_with_pairs(self, rng):
        emb, labels, split = self.setup_case(rng)
        rows, _, out_pairs = numeric_augment(
            emb, labels, split, "smote", 3, {0: 10}, seed=1
        )
        for row, (a, b) in zip(rows, out_pairs):
            x_i, x_k = emb.vectors[a], emb.vectors[b]
            lhs = np.linalg.norm(row - x_i) + np.linalg.norm(row - x_k)
            assert lhs == pytest.approx(np.linalg.norm(x_i - x_k), abs=1e-9)

    def test_all_modes_inside_class_hull_2d(self, rng):
        emb, labels, split = self.setup_case(rng, n_per=8)
        for mode in ("oversample", "smote"):
            rows, out_labels, _ = numeric_augment(
                emb, labels, split, mode, 3, {0: 6}, seed=2
            )
            members = [
                emb.vectors[i] for i in split.train_idx if labels[i] == 0
            ]
            hull = convex_hull_2d(members)
            for row, lab in zip(rows, out_labels):
                assert lab == 0
                assert in_hull_2d(row, hull)

    def test_mixup_inside_union_hull_2d(self, rng):
        emb, labels, split = self.setup_case(rng, n_per=8)
        rows, _, _ = numeric_augment(emb, labels, split, "mixup", 3, {0: 6}, seed=3)
        hull = convex_hull_2d(emb.vectors)
        for row in rows:
            assert in_hull_2d(row, hull)

    def test_oversample_mode_copies(self, rng):
        emb, labels, split = self.setup_case(rng)
        rows, out_labels, pairs = numeric_augment(
            emb, labels, split, "oversample", 3, {0: 4}, seed=0
        )
        assert len(rows) == 4
        for row, (src, _) in zip(rows, pairs):
            np.testing.assert_array_equal(row, emb.vectors[src])

    def test_unknown_mode(self, rng):
        emb, labels, split = self.setup_case(rng)
        for targets in ({0: 2}, {0: 0}):  # rejected before any pair is scheduled
            with pytest.raises(ValueError, match="unknown numeric mode"):
                numeric_augment(emb, labels, split, "jitter", 3, targets, seed=0)
