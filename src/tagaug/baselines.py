"""Numeric interpolation baselines over embedding rows: anchor copies,
same-class segment interpolation, and Beta-weighted cross-pair mixing.

numeric_augment schedules every mode with the generation module's
find_vicinal_twins (variant O, S or M), so the numeric and text-level
routes differ only in the synthesis operator.
"""

import numpy as np

from .generation import find_vicinal_twins

VARIANT_BY_MODE = {"oversample": "O", "smote": "S", "mixup": "M"}


def smote_interpolate(x_i, x_k, lam):
    """x_i + lam * (x_k - x_i); the pair's shared class labels the result."""
    x_i = np.asarray(x_i, dtype=np.float64)
    x_k = np.asarray(x_k, dtype=np.float64)
    if x_i.shape != x_k.shape:
        raise ValueError(f"dimension mismatch: {x_i.shape} vs {x_k.shape}")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    return x_i + lam * (x_k - x_i)


def mixup_interpolate(x_i, x_j, y_i, y_j, lam):
    """Convex combination lam * (x_i, y_i) + (1 - lam) * (x_j, y_j) of
    inputs and one-hot labels.

    Returns (x, soft y, hard label) with the hard label as argmax of the
    soft label, ties going to y_i's class.
    """
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    y_i = np.asarray(y_i, dtype=np.float64)
    y_j = np.asarray(y_j, dtype=np.float64)
    if x_i.shape != x_j.shape or y_i.shape != y_j.shape:
        raise ValueError("dimension mismatch between pair members")
    if not 0 <= lam <= 1:
        raise ValueError("lambda must lie in [0, 1]")
    x_new = lam * x_i + (1 - lam) * x_j
    y_new = lam * y_i + (1 - lam) * y_j
    anchor_cls = int(np.argmax(y_i))
    best = float(y_new.max())
    hard = anchor_cls if y_new[anchor_cls] == best else int(np.argmax(y_new))
    return x_new, y_new, hard


def numeric_augment(emb, labels, split, mode, knn_k, target_counts, seed):
    """Synthesize embedding rows on the shared vicinal-pair schedule.

    mode: oversample (anchor copies on variant O's schedule), smote
    (same-class segment points on variant S's, lambda ~ U(0,1)), or mixup
    (Beta(1, 1) mixing on variant M's, soft-label argmax as the label).
    target_counts maps class -> extra rows. Returns (rows, labels, pairs).
    """
    if mode not in VARIANT_BY_MODE:
        raise ValueError(f"unknown numeric mode: {mode}")
    labels = np.asarray(labels, dtype=np.int64)
    pairs = find_vicinal_twins(
        split, emb, labels, knn_k, target_counts=target_counts,
        variant=VARIANT_BY_MODE[mode],
    )
    rng = np.random.default_rng(seed)
    class_count = int(labels.max()) + 1
    rows, out_labels = [], []
    for pair in pairs:
        x_i = emb.vectors[pair.anchor]
        x_k = emb.vectors[pair.partner]
        if mode == "oversample":
            rows.append(x_i)
            out_labels.append(pair.label)
        elif mode == "smote":
            rows.append(smote_interpolate(x_i, x_k, float(rng.uniform())))
            out_labels.append(pair.label)
        else:
            y_i = np.eye(class_count)[pair.label]
            y_j = np.eye(class_count)[pair.partner_label]
            x_new, _y_new, hard = mixup_interpolate(
                x_i, x_k, y_i, y_j, float(rng.beta(1.0, 1.0))
            )
            rows.append(x_new)
            out_labels.append(hard)
    rows = np.array(rows) if rows else np.zeros((0, emb.dim))
    return rows, np.array(out_labels, dtype=np.int64), [(p.anchor, p.partner) for p in pairs]
