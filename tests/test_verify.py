import numpy as np
import pytest

from tagaug.neural import aggregate_layer
from tagaug.verify import (
    contraction_check,
    gradient_fidelity_check,
    isolation_check,
    margin_bound_check,
    run_all_checks,
)


def test_gradient_fidelity_passes():
    out = gradient_fidelity_check(seed=0)
    assert out["passed"]
    assert out["mlp_max_rel_error"] <= 1e-4
    assert out["gcn_max_rel_error"] <= 1e-4


def test_gradient_fidelity_passes_on_every_seed():
    # The GCN instance's graph reads no labels: seeds whose random labels
    # would all have been 0 (35, 43, 67, 90, 97) build it too.
    failed = [s for s in range(100) if not gradient_fidelity_check(seed=s)["passed"]]
    assert failed == []


def test_isolation_passes():
    out = isolation_check(trials=50, seed=1)
    assert out["passed"]
    assert out["max_deviation"] <= 1e-12


def test_contraction_passes():
    out = contraction_check(trials=300, seed=2)
    assert out["passed"] and out["violations"] == 0


def test_margin_bound_passes():
    out = margin_bound_check(trials=300, seed=3)
    assert out["passed"] and out["failures"] == 0
    assert out["bcr_zero_corner_exact"]


def test_run_all_checks():
    report = run_all_checks(seed=0)
    assert report["all_passed"]
    assert {c["name"] for c in report["checks"]} == {
        "gradient_fidelity", "isolation", "contraction", "margin_bound",
    }


def test_unnormalized_beta_negative_control(rng):
    # the contraction setup rejects an aggregation step whose neighbor
    # weights do not form a convex combination
    h = rng.normal(size=(3, 3))
    with pytest.raises(ValueError, match="sum to"):
        aggregate_layer(h, [[1, 2], [], []], [[0.4, 0.4], [], []], 0.5, np.eye(3))


def test_alpha_one_isolation_degenerates_to_self_map(rng):
    h = rng.normal(size=(4, 3))
    weights = [rng.normal(size=(3, 3)) for _ in range(3)]
    out = h
    for w in weights:
        out = aggregate_layer(out, [[]] * 4, [[]] * 4, 1.0, w)
    chain = weights[0] @ weights[1] @ weights[2]
    np.testing.assert_allclose(out, h @ chain, atol=1e-12)


def test_contraction_alpha_one_boundary(rng):
    # alpha = 1 turns the inequality into d' <= Lw * d, which a scaled W
    # satisfies by definition of the spectral norm
    w = rng.normal(size=(4, 4))
    w *= 0.8 / np.linalg.svd(w, compute_uv=False)[0]
    m = rng.normal(size=4)
    h_v = m + rng.normal(size=4)
    d = np.linalg.norm(h_v - m)
    out = aggregate_layer(h_v[None, :], [[]], [[]], 1.0, w)
    assert np.linalg.norm(out[0] - m @ w) <= 0.8 * d + 1e-9
