"""Classification and boundary metrics for train-eval, and the margin-bound
evaluator the theory-verification command checks.
"""

import numpy as np

from .embedding import _best
from .neural import predict

# bps score of a sample that sits on another class's centroid (d_out = 0).
BPS_CAP = 1e6


def confusion_matrix(true_labels, pred_labels, class_count):
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    out = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(out, (true_labels, pred_labels), 1)
    return out


def classification_metrics(confusion):
    """acc, bAcc (mean recall), macro-F1, and GMean from a confusion matrix.

    Classes with zero support are flagged, contribute F1 = 0 to macro-F1,
    and are excluded from the recall average and the geometric mean.
    """
    confusion = np.asarray(confusion, dtype=np.float64)
    total = confusion.sum()
    if total <= 0:
        raise ValueError("confusion matrix is empty")
    recall = per_class_recall(confusion)
    supported = ~np.isnan(recall)
    predicted = confusion.sum(axis=0)
    diag = np.diag(confusion)
    zeros = np.zeros_like(diag)
    precision = np.divide(diag, predicted, out=zeros.copy(), where=predicted > 0)
    both = precision + recall
    f1 = np.divide(2 * precision * recall, both, out=zeros, where=supported & (both > 0))
    recalls = recall[supported]
    gmean = float(np.prod(recalls) ** (1.0 / len(recalls))) if len(recalls) else 0.0
    return {
        "acc": float(diag.sum() / total),
        "bacc": float(recalls.mean()) if len(recalls) else 0.0,
        "macro_f1": float(np.mean(f1)),
        "gmean": gmean,
        "zero_support_classes": np.flatnonzero(~supported).tolist(),
    }


def per_class_recall(confusion):
    confusion = np.asarray(confusion, dtype=np.float64)
    support = confusion.sum(axis=1)
    safe = np.where(support == 0, 1.0, support)
    recall = np.diag(confusion) / safe
    return np.where(support == 0, np.nan, recall)


def head_tail_gap(confusion, tail_classes):
    """Mean head-class recall minus mean tail-class recall (NaN-safe)."""
    recall = per_class_recall(confusion)
    tail = sorted(tail_classes)
    head = [c for c in range(len(recall)) if c not in tail_classes]
    head_mean = float(np.nanmean(recall[head])) if head else float("nan")
    tail_mean = float(np.nanmean(recall[tail])) if tail else float("nan")
    return head_mean - tail_mean


def build_manifold_index(rows, labels):
    """The reference (rows, labels) for bcr, grouped by class in ascending
    order, each class's rows in their input order; bcr breaks distance ties
    by this order."""
    labels = np.asarray(labels, dtype=np.int64)
    order = np.argsort(labels, kind="stable")
    return np.asarray(rows, dtype=np.float64)[order], labels[order]


def bcr(sample_rows, sample_labels, index, k):
    """Fraction of samples whose k-NN majority label on the reference set
    index, build_manifold_index's (rows, labels), differs from their own
    label; majority ties count as differing."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ref_rows, ref_labels = index
    sample_rows = np.atleast_2d(np.asarray(sample_rows, dtype=np.float64))
    sample_labels = np.asarray(sample_labels, dtype=np.int64)
    boundary = 0
    for row, own in zip(sample_rows, sample_labels):
        dists = np.sqrt(((ref_rows - row) ** 2).sum(axis=1))
        counts = np.bincount(ref_labels[_best(-dists, k, -np.inf)], minlength=own + 1)
        top = counts.max()
        if counts[own] < top or np.count_nonzero(counts == top) > 1:
            boundary += 1
    return boundary / len(sample_rows)


def bps(sample_rows, sample_labels, centroids):
    """Mean of d_in / d_out per sample; d_out = 0 clamps to BPS_CAP.

    centroids maps each class to its centroid (class_centroids). d_in is
    the distance to the own-class centroid, d_out to the nearest other-class
    centroid. Higher means nearer the boundary.
    """
    sample_rows = np.atleast_2d(np.asarray(sample_rows, dtype=np.float64))
    sample_labels = np.asarray(sample_labels, dtype=np.int64)
    scores = []
    for row, own in zip(sample_rows, sample_labels):
        d_in = float(np.linalg.norm(row - centroids[int(own)]))
        others = [float(np.linalg.norm(row - c)) for cls, c in centroids.items() if cls != own]
        if not others:
            raise ValueError("bps needs at least two defined centroids")
        d_out = min(others)
        scores.append(d_in / d_out if d_out > 0 else (0.0 if d_in == 0 else BPS_CAP))
    return float(np.mean(scores))


def icr(sample_rows, intended_labels, probe_model):
    """Fraction of samples the balanced probe assigns to their intended class."""
    sample_rows = np.atleast_2d(np.asarray(sample_rows, dtype=np.float64))
    intended_labels = np.asarray(intended_labels, dtype=np.int64)
    pred, _, _ = predict(probe_model, sample_rows)
    return float(np.mean(pred == intended_labels))


def check_margin_bound(gamma0, delta, bcr_value, gamma_min_aug):
    """Evaluate gamma_min_aug >= gamma0 - delta * (1 - BCR).

    Requires delta >= gamma0 (the conservative-ordering assumption) and
    BCR in [0, 1]; returns the truth value and the slack.
    """
    if not 0 <= bcr_value <= 1:
        raise ValueError("bcr must lie in [0, 1]")
    if delta < gamma0:
        raise ValueError("delta must be >= gamma0")
    bound = gamma0 - delta * (1.0 - bcr_value)
    slack = gamma_min_aug - bound
    return {"holds": bool(gamma_min_aug >= bound), "slack": float(slack), "bound": float(bound)}

