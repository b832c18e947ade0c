"""Self-contained theory checks on constructed random instances.

Each check builds its own instances and carries its own oracle:
  gradient fidelity   analytic vs central-difference gradients
  isolation           edgeless nodes follow the closed-form self-map and
                      ignore every other node bit-for-bit
  contraction         one aggregation step obeys the distance inequality
                      d' <= alpha*Lw*d + (1-alpha)*Lw*eps
  margin bound        randomized margin sets satisfy the realized-margin
                      lower bound gamma0 - delta*(1 - BCR)
"""

import numpy as np

from .metrics import check_margin_bound
from .neural import (
    TrainConfig,
    aggregate_layer,
    gradient_check,
    init_model,
)
from .graph import TextGraph, normalized_adjacency


def _random_graph_instance(rng, n=6):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    graph = TextGraph(
        node_count=n,
        texts=tuple("" for _ in range(n)),
        labels=tuple(int(rng.integers(2)) for _ in range(n)),
        class_names=("a", "b"),
        edges=pairs,
    )
    return normalized_adjacency(graph)


def gradient_fidelity_check(seed=0, epsilon=1e-5, tolerance=1e-4):
    """Gradient check for an MLP and a GCN on randomized 6-node instances."""
    rng = np.random.default_rng(seed)
    n, in_dim, classes = 6, 5, 3
    features = rng.normal(size=(n, in_dim))
    targets = rng.integers(classes, size=n)

    mlp = init_model(
        "mlp", in_dim, classes, TrainConfig(hidden_dims=(7,), dropout=0.0, seed=seed)
    )
    mlp_err = gradient_check(mlp, features, targets, epsilon=epsilon, seed=seed)

    gcn = init_model(
        "gcn", in_dim, classes, TrainConfig(hidden_dims=(7,), dropout=0.0, seed=seed + 1)
    )
    adj = _random_graph_instance(rng, n)
    gcn_err = gradient_check(
        gcn, features, targets, epsilon=epsilon, adjacency=adj, seed=seed
    )
    return {
        "name": "gradient_fidelity",
        "mlp_max_rel_error": float(mlp_err),
        "gcn_max_rel_error": float(gcn_err),
        "tolerance": tolerance,
        "passed": bool(mlp_err <= tolerance and gcn_err <= tolerance),
    }


def _stacked_aggregate(h, neighbor_lists, beta_lists, alpha, weights):
    out = h
    for w in weights:
        out = aggregate_layer(out, neighbor_lists, beta_lists, alpha, w)
    return out


def isolation_check(trials=100, seed=0, tolerance=1e-12):
    """Edgeless node: closed form alpha^L * h0 @ (W_1 ... W_L) within
    tolerance, and bit-identical under arbitrary perturbation of every
    other node's input."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 8))
        p = int(rng.integers(2, 6))
        depth = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.05, 1.0))
        weights = [rng.uniform(-1, 1, size=(p, p)) for _ in range(depth)]
        h = rng.uniform(-1, 1, size=(n, p))

        neighbor_lists = [[] for _ in range(n)]
        beta_lists = [[] for _ in range(n)]
        for v in range(1, n):
            others = [u for u in range(1, n) if u != v]
            if others and rng.random() < 0.8:
                count = int(rng.integers(1, len(others) + 1))
                nbrs = list(rng.choice(others, size=count, replace=False))
                raw = rng.uniform(0.1, 1.0, size=count)
                neighbor_lists[v] = [int(u) for u in nbrs]
                beta_lists[v] = list(raw / raw.sum())

        chain = weights[0]
        for w in weights[1:]:
            chain = chain @ w
        closed = (alpha**depth) * (h[0] @ chain)

        out = _stacked_aggregate(h, neighbor_lists, beta_lists, alpha, weights)
        worst = max(worst, float(np.max(np.abs(out[0] - closed))))
        if worst > tolerance:
            break

        h2 = h.copy()
        h2[1:] = rng.uniform(-5, 5, size=(n - 1, p))
        out2 = _stacked_aggregate(h2, neighbor_lists, beta_lists, alpha, weights)
        if not np.array_equal(out[0], out2[0]):
            return {
                "name": "isolation",
                "passed": False,
                "max_deviation": worst,
                "detail": "isolated row changed under perturbation of other nodes",
            }
    return {
        "name": "isolation",
        "passed": bool(worst <= tolerance),
        "max_deviation": worst,
        "tolerance": tolerance,
    }


def _spectral_scale(matrix, target):
    smax = np.linalg.svd(matrix, compute_uv=False)[0]
    return matrix * (target / smax)


def contraction_check(trials=1000, seed=0, slack=1e-9):
    """One aggregation step with ||W||_2 = Lw < 1 and all neighbors within
    eps of a reference point m satisfies
    dist(h', W m) <= alpha*Lw*dist(h, m) + (1-alpha)*Lw*eps."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst_margin = -np.inf
    for _ in range(trials):
        p = int(rng.integers(2, 7))
        lw = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(0.05, 0.95))
        w = _spectral_scale(rng.normal(size=(p, p)), lw)
        m = rng.uniform(-2, 2, size=p)
        eps = float(rng.uniform(0.01, 1.0))

        k = int(rng.integers(1, 6))
        neighbors = []
        for _ in range(k):
            direction = rng.normal(size=p)
            direction /= np.linalg.norm(direction)
            neighbors.append(m + direction * eps * rng.uniform(0, 1))
        direction = rng.normal(size=p)
        direction /= np.linalg.norm(direction)
        d = float(eps * rng.uniform(1.0, 3.0))
        h_v = m + direction * d

        h = np.vstack([h_v, *neighbors])
        raw = rng.uniform(0.1, 1.0, size=k)
        beta = raw / raw.sum()
        out = aggregate_layer(
            h,
            [[i + 1 for i in range(k)]] + [[] for _ in range(k)],
            [list(beta)] + [[] for _ in range(k)],
            alpha,
            w,
        )
        d_next = float(np.linalg.norm(out[0] - m @ w))
        bound = alpha * lw * d + (1 - alpha) * lw * eps
        margin = d_next - bound
        worst_margin = max(worst_margin, margin)
        if margin > slack:
            violations += 1
    return {
        "name": "contraction",
        "passed": violations == 0,
        "trials": trials,
        "violations": violations,
        "worst_margin": worst_margin,
    }


def margin_bound_check(trials=1000, seed=0):
    """Randomized margin sets under the proof assumptions: retained and
    interior margins >= gamma0, delta >= gamma0, and boundary margins
    inside the realized-margin envelope [gamma0 - delta*(1-BCR), delta]
    (a subset of the |margin| <= delta slack band)."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(trials):
        gamma0 = float(rng.uniform(0.01, 2.0))
        delta = gamma0 * float(rng.uniform(1.0, 3.0))
        m_bd = int(rng.integers(0, 20))
        m_in = int(rng.integers(0 if m_bd else 1, 20))
        bcr_value = m_bd / (m_bd + m_in)
        original = rng.uniform(gamma0, 3 * gamma0, size=int(rng.integers(2, 20)))
        bd_floor = gamma0 - delta * (1.0 - bcr_value)
        boundary = rng.uniform(bd_floor, delta, size=m_bd)
        interior = rng.uniform(gamma0, 3 * gamma0, size=m_in)
        gamma_min_aug = float(np.concatenate([original, boundary, interior]).min())
        if not check_margin_bound(gamma0, delta, bcr_value, gamma_min_aug)["holds"]:
            failures += 1

    corner = check_margin_bound(1.0, 1.5, 0.0, 2.0)
    corner_exact = corner["bound"] == 1.0 - 1.5
    return {
        "name": "margin_bound",
        "passed": failures == 0 and corner_exact,
        "trials": trials,
        "failures": failures,
        "bcr_zero_corner_exact": bool(corner_exact),
    }


def run_all_checks(seed=0):
    checks = [
        gradient_fidelity_check(seed=seed),
        isolation_check(seed=seed),
        contraction_check(seed=seed),
        margin_bound_check(seed=seed),
    ]
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}
