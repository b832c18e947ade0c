import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagaug.embedding import class_centroids, EmbeddingMatrix
from tagaug.metrics import (
    bcr,
    bps,
    build_manifold_index,
    check_margin_bound,
    classification_metrics,
    confusion_matrix,
    head_tail_gap,
    icr,
)
from tagaug.neural import ClassifierModel, DenseLayer, TrainConfig, train_classifier


def per_class_loop_metrics(confusion):
    """Oracle: the metrics by one loop over the classes, scalar by scalar."""
    confusion = np.asarray(confusion, dtype=np.float64)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    diag = np.diag(confusion)
    recalls, f1s, zero_support = [], [], []
    for c in range(confusion.shape[0]):
        if support[c] == 0:
            zero_support.append(c)
            f1s.append(0.0)
            continue
        recall = diag[c] / support[c]
        precision = diag[c] / predicted[c] if predicted[c] > 0 else 0.0
        both = precision + recall
        f1s.append(2 * precision * recall / both if both > 0 else 0.0)
        recalls.append(recall)
    recalls = np.array(recalls)
    return {
        "acc": float(diag.sum() / confusion.sum()),
        "bacc": float(recalls.mean()) if len(recalls) else 0.0,
        "macro_f1": float(np.mean(f1s)),
        "gmean": float(np.prod(recalls) ** (1.0 / len(recalls))) if len(recalls) else 0.0,
        "zero_support_classes": zero_support,
    }


class TestClassificationMetrics:
    def test_perfect_diagonal(self):
        out = classification_metrics(np.diag([5, 3, 2]))
        assert out["acc"] == out["bacc"] == out["macro_f1"] == out["gmean"] == 1.0

    def test_two_class_arithmetic(self):
        # recalls (1.0, 0.25)
        conf = np.array([[4, 0], [3, 1]])
        out = classification_metrics(conf)
        assert out["gmean"] == pytest.approx(0.5)
        assert out["bacc"] == pytest.approx(0.625)
        assert out["acc"] == pytest.approx(5 / 8)

    def test_matches_definition_oracle(self, rng):
        for _ in range(100):
            conf = rng.integers(0, 9, size=(3, 3))
            conf += np.diag([1, 1, 1])  # ensure support everywhere
            got = classification_metrics(conf)

            support = conf.sum(axis=1)
            pred = conf.sum(axis=0)
            recalls = [conf[c, c] / support[c] for c in range(3)]
            precisions = [conf[c, c] / pred[c] if pred[c] else 0.0 for c in range(3)]
            f1s = [
                2 * p * r / (p + r) if p + r else 0.0
                for p, r in zip(precisions, recalls)
            ]
            assert got["acc"] == pytest.approx(np.trace(conf) / conf.sum())
            assert got["bacc"] == pytest.approx(np.mean(recalls))
            assert got["macro_f1"] == pytest.approx(np.mean(f1s))
            assert got["gmean"] == pytest.approx(np.prod(recalls) ** (1 / 3))
        # zero-support rows and zero-prediction columns, bit for bit
        for _ in range(300):
            c = int(rng.integers(2, 6))
            conf = rng.integers(0, 9, size=(c, c))
            conf[rng.random(c) < 0.3] = 0
            conf[:, rng.random(c) < 0.3] = 0
            conf[0, 0] += 1  # never empty
            assert classification_metrics(conf) == per_class_loop_metrics(conf)

    def test_zero_support_flagged(self):
        conf = np.array([[3, 0], [0, 0]])
        out = classification_metrics(conf)
        assert out["zero_support_classes"] == [1]
        assert out["bacc"] == 1.0  # only the supported class counts

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 10), min_size=9, max_size=9))
    def test_gmean_never_exceeds_bacc(self, cells):
        conf = np.array(cells).reshape(3, 3) + np.eye(3, dtype=int)
        out = classification_metrics(conf)
        assert out["gmean"] <= out["bacc"] + 1e-12

    def test_head_tail_gap(self):
        conf = np.array([[10, 0, 0], [0, 10, 0], [5, 0, 5]])
        gap = head_tail_gap(conf, tail_classes={2})
        assert gap == pytest.approx(1.0 - 0.5)


class TestBcr:
    def test_samples_identical_to_reference(self, rng):
        rows = rng.normal(size=(8, 3))
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        index = build_manifold_index(rows, labels)
        assert bcr(rows, labels, index, k=1) == 0.0

    def test_opposite_cluster_centers(self, rng):
        a = rng.normal(size=(10, 2)) * 0.1 + [5.0, 0.0]
        b = rng.normal(size=(10, 2)) * 0.1 - [5.0, 0.0]
        index = build_manifold_index(np.vstack([a, b]), [0] * 10 + [1] * 10)
        samples = np.vstack([b.mean(axis=0), a.mean(axis=0)])
        assert bcr(samples, [0, 1], index, k=3) == 1.0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            ref = rng.normal(size=(20, 3))
            ref_labels = list(rng.integers(3, size=20))
            ref_labels[:3] = [0, 1, 2]
            index = build_manifold_index(ref, ref_labels)
            samples = rng.normal(size=(30, 3))
            sample_labels = rng.integers(3, size=30)
            k = int(rng.integers(1, 6))
            got = bcr(samples, sample_labels, index, k)

            ordered_rows, ordered_labels = index
            boundary = 0
            for row, own in zip(samples, sample_labels):
                dists = [
                    (float(np.linalg.norm(row - r)), i)
                    for i, r in enumerate(ordered_rows)
                ]
                dists.sort()
                votes = {}
                for _d, i in dists[:k]:
                    votes[ordered_labels[i]] = votes.get(ordered_labels[i], 0) + 1
                best = max(votes.values())
                winners = [lab for lab, v in votes.items() if v == best]
                if len(winners) > 1 or winners[0] != own:
                    boundary += 1
            assert got == pytest.approx(boundary / 30)

    def test_rigid_motion_invariance(self, rng):
        ref = rng.normal(size=(15, 2))
        ref_labels = list(rng.integers(2, size=15))
        ref_labels[:2] = [0, 1]
        samples = rng.normal(size=(10, 2))
        sample_labels = rng.integers(2, size=10)
        base = bcr(samples, sample_labels, build_manifold_index(ref, ref_labels), 3)
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -1.0])
        moved = bcr(
            samples @ rot.T + shift,
            sample_labels,
            build_manifold_index(ref @ rot.T + shift, ref_labels),
            3,
        )
        assert base == pytest.approx(moved)


class TestBps:
    def centroids_of(self, rows, labels):
        return class_centroids(
            EmbeddingMatrix(vectors=np.asarray(rows, dtype=np.float64), encoder_id="t"),
            labels,
        )

    def test_sample_at_own_centroid(self):
        cents = self.centroids_of([[0.0, 0.0], [4.0, 0.0]], [0, 1])
        assert bps([[0.0, 0.0]], [0], cents) == 0.0

    def test_equidistant_scores_one(self):
        cents = self.centroids_of([[0.0, 0.0], [4.0, 0.0]], [0, 1])
        assert bps([[2.0, 0.0]], [0], cents) == pytest.approx(1.0)

    def test_matches_direct_recomputation(self, rng):
        rows = rng.normal(size=(12, 4))
        labels = list(rng.integers(3, size=12))
        labels[:3] = [0, 1, 2]
        cents = self.centroids_of(rows, labels)
        samples = rng.normal(size=(20, 4))
        sample_labels = rng.integers(3, size=20)
        got = bps(samples, sample_labels, cents)
        scores = []
        for row, own in zip(samples, sample_labels):
            d_in = np.linalg.norm(row - cents[int(own)])
            d_out = min(
                np.linalg.norm(row - c)
                for cls, c in cents.items()
                if cls != own
            )
            scores.append(d_in / d_out)
        assert got == pytest.approx(np.mean(scores), abs=1e-12)

    def test_increases_toward_other_centroid(self):
        cents = self.centroids_of([[0.0, 0.0], [4.0, 0.0]], [0, 1])
        values = [
            bps([[t, 0.0]], [0], cents) for t in (0.0, 0.5, 1.0, 1.5, 1.9)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


def perfect_model(class_count):
    """Linear map whose logits hugely favor the index of the hot feature."""
    return ClassifierModel(
        "mlp",
        [DenseLayer(np.eye(class_count) * 1e3, np.zeros(class_count))],
        0.0,
        class_count,
    )


class TestIcr:
    def test_correct_duplicates_score_one(self, rng):
        x = np.eye(3)[rng.integers(3, size=30)]
        labels = x.argmax(axis=1)
        assert icr(x, labels, perfect_model(3)) == 1.0

    def test_adversarial_permutation_scores_zero(self, rng):
        x = np.eye(3)[rng.integers(3, size=30)]
        labels = (x.argmax(axis=1) + 1) % 3
        assert icr(x, labels, perfect_model(3)) == 0.0

    def test_oversampled_duplicates_keep_full_rate(self, rng):
        # balanced-probe contract: exact copies of correctly classified
        # points keep a 100% in-class rate
        base = rng.normal(size=(20, 4))
        labels = rng.integers(2, size=20)
        cfg = TrainConfig(epochs=150, learning_rate=0.01, dropout=0.0,
                          hidden_dims=(16,), seed=0)
        probe = train_classifier(base, labels, np.arange(20), cfg, kind="mlp")
        from tagaug.neural import predict

        pred, _, _ = predict(probe, base)
        correct = np.flatnonzero(pred == labels)
        dup = np.repeat(base[correct], 3, axis=0)
        dup_labels = np.repeat(labels[correct], 3)
        assert icr(dup, dup_labels, probe) == 1.0


class TestMarginBound:
    def test_bcr_zero_corner(self):
        out = check_margin_bound(1.0, 1.5, 0.0, 0.2)
        assert out["bound"] == 1.0 - 1.5
        assert out["holds"] and out["slack"] == pytest.approx(0.7)

    def test_bcr_one_slack_zero(self):
        out = check_margin_bound(1.0, 1.5, 1.0, 1.0)
        assert out["holds"] and out["slack"] == pytest.approx(0.0)

    def test_direct_evaluation_oracle(self, rng):
        for _ in range(100):
            gamma0 = float(rng.uniform(0.1, 2))
            delta = gamma0 * float(rng.uniform(1, 3))
            bcr_value = float(rng.uniform(0, 1))
            gamma_aug = float(rng.uniform(-delta, 2))
            out = check_margin_bound(gamma0, delta, bcr_value, gamma_aug)
            assert out["holds"] == (gamma_aug >= gamma0 - delta * (1 - bcr_value))

    def test_assumption_ordering_enforced(self):
        with pytest.raises(ValueError, match="delta"):
            check_margin_bound(1.0, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError, match="bcr"):
            check_margin_bound(1.0, 1.5, 1.5, 1.0)


def test_confusion_matrix_counts():
    conf = confusion_matrix([0, 1, 1, 2], [0, 1, 2, 2], 3)
    np.testing.assert_array_equal(conf, [[1, 0, 0], [0, 1, 1], [0, 0, 1]])
