import hashlib
from dataclasses import replace

import numpy as np
import pytest

from tagaug.fixtures import make_toy_tag
from tagaug.graph import TextGraph, normalized_adjacency
from tagaug.neural import (
    ClassifierModel,
    DenseLayer,
    TrainConfig,
    TrainingDivergedError,
    aggregate_layer,
    confidence_train_defaults,
    dropout_mask,
    forward,
    gradient_check,
    init_model,
    load_model,
    predict,
    save_model,
    train_classifier,
)


def line_graph(n):
    return TextGraph(
        n, ("t",) * n, (0,) * n, ("a",), tuple((i, i + 1) for i in range(n - 1))
    )


class TestAggregateLayer:
    def test_isolated_node_self_map(self, rng):
        h = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 4))
        out = aggregate_layer(h, [[], [2], [1]], [[], [1.0], [1.0]], 0.3, w)
        np.testing.assert_array_equal(out[0], 0.3 * (h @ w)[0])

    def test_alpha_one_ignores_neighbors(self, rng):
        h = rng.normal(size=(2, 3))
        w = rng.normal(size=(3, 3))
        out = aggregate_layer(h, [[1], [0]], [[1.0], [1.0]], 1.0, w)
        np.testing.assert_allclose(out, h @ w)

    def test_two_neighbor_arithmetic(self):
        h = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        out = aggregate_layer(
            h, [[1, 2], [], []], [[0.5, 0.5], [], []], 0.5, np.eye(2)
        )
        np.testing.assert_allclose(out[0], [0.5, 0.5])

    def test_unnormalized_beta_rejected(self, rng):
        h = rng.normal(size=(2, 2))
        with pytest.raises(ValueError, match="sum to"):
            aggregate_layer(h, [[1], []], [[0.7], []], 0.5, np.eye(2))

    def test_beta_tolerance(self, rng):
        h = rng.normal(size=(2, 2))
        aggregate_layer(h, [[1], []], [[1.0 + 5e-10], []], 0.5, np.eye(2))


class TestForward:
    def test_zero_weights_zero_logits(self):
        layers = [
            DenseLayer(np.zeros((3, 4)), np.zeros(4)),
            DenseLayer(np.zeros((4, 2)), np.zeros(2)),
        ]
        model = ClassifierModel("gcn", layers, 0.0, 2)
        adj = normalized_adjacency(line_graph(5))
        logits, _ = forward(model, np.ones((5, 3)), adjacency=adj)
        np.testing.assert_array_equal(logits, np.zeros((5, 2)))

    def test_single_node_gcn_equals_mlp(self, rng):
        model = init_model("gcn", 3, 2, TrainConfig(hidden_dims=(4,), dropout=0.5, seed=1))
        mlp = ClassifierModel("mlp", model.layers, model.dropout_rate, 2)
        adj = normalized_adjacency(line_graph(1))
        x = rng.normal(size=(1, 3))
        for train_mode in (False, True):
            got, _ = forward(model, x, adjacency=adj, train_mode=train_mode, seed=3)
            want, _ = forward(mlp, x, train_mode=train_mode, seed=3)
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_matches_dense_chain_oracle(self, rng):
        n, d, h, c = 5, 4, 6, 3
        graph = TextGraph(
            n, ("t",) * n, (0,) * n, ("a",), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
        )
        adj = normalized_adjacency(graph)
        model = init_model("gcn", d, c, TrainConfig(hidden_dims=(h,), dropout=0.0, seed=0))
        x = rng.normal(size=(n, d))
        a = adj.todense()
        w1, b1 = model.layers[0].weight, model.layers[0].bias
        w2, b2 = model.layers[1].weight, model.layers[1].bias
        oracle = a @ np.maximum(a @ x @ w1 + b1, 0.0) @ w2 + b2
        got, _ = forward(model, x, adjacency=adj)
        np.testing.assert_allclose(got, oracle, rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        model = init_model("mlp", 3, 2, TrainConfig(hidden_dims=(4,), seed=0))
        with pytest.raises(ValueError, match="input dim"):
            forward(model, rng.normal(size=(2, 5)))


def separable_toy(rng, n_per=10):
    a = rng.normal(size=(n_per, 2)) * 0.3 + np.array([2.0, 2.0])
    b = rng.normal(size=(n_per, 2)) * 0.3 + np.array([-2.0, -2.0])
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def perceptron_separable(x, y, max_epochs=200):
    """Oracle: the perceptron converges iff the set is linearly separable."""
    aug = np.hstack([x, np.ones((len(x), 1))])
    sign = np.where(y == 0, 1.0, -1.0)
    w = np.zeros(aug.shape[1])
    for _ in range(max_epochs):
        errors = 0
        for row, s in zip(aug, sign):
            if s * (row @ w) <= 0:
                w += s * row
                errors += 1
        if errors == 0:
            return True
    return False


class TestTraining:
    def test_separable_set_reaches_full_accuracy(self, rng):
        x, y = separable_toy(rng)
        assert perceptron_separable(x, y)
        cfg = TrainConfig(
            epochs=200, learning_rate=0.05, dropout=0.0, hidden_dims=(8,), seed=0
        )
        model = train_classifier(x, y, np.arange(len(y)), cfg, kind="mlp")
        pred, _, _ = predict(model, x)
        assert np.mean(pred == y) == 1.0

    def test_zero_learning_rate_keeps_params(self, rng):
        x, y = separable_toy(rng)
        cfg = TrainConfig(
            epochs=10, learning_rate=0.0, dropout=0.0, hidden_dims=(4,), seed=3
        )
        model = train_classifier(x, y, np.arange(len(y)), cfg, kind="mlp")
        fresh = init_model("mlp", 2, 2, cfg)
        for got, want in zip(model.layers, fresh.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
            np.testing.assert_array_equal(got.bias, want.bias)
        assert len(set(np.round(model.loss_history, 12))) == 1

    def test_deterministic(self, rng):
        x, y = separable_toy(rng)
        cfg = TrainConfig(epochs=30, learning_rate=0.01, dropout=0.5, hidden_dims=(6,), seed=5)
        a = train_classifier(x, y, np.arange(len(y)), cfg, kind="mlp")
        b = train_classifier(x, y, np.arange(len(y)), cfg, kind="mlp")
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
        assert a.loss_history == b.loss_history

    def test_default_configs_match_protocol(self):
        gcn = TrainConfig()
        assert gcn.epochs == 1000 and gcn.learning_rate == 0.01
        assert gcn.hidden_dims == (64, 64) and gcn.dropout == 0.5
        conf = confidence_train_defaults()
        assert conf.epochs == 1000 and conf.learning_rate == 0.001
        assert conf.hidden_dims == (256,) and conf.dropout == 0.0

    def test_gcn_defaults_on_dataset_format_input(self, rng):
        # tiny graph, default epochs/dims: history length and layer shapes
        n = 12
        graph = line_graph(n)
        adj = normalized_adjacency(graph)
        x = rng.normal(size=(n, 5))
        y = np.array([0, 1] * 6)
        model = train_classifier(
            x, y, np.arange(n), TrainConfig(seed=0), kind="gcn", adjacency=adj
        )
        assert len(model.loss_history) == 1000
        assert [l.weight.shape for l in model.layers] == [(5, 64), (64, 64), (64, 2)]

    def test_divergence_aborts_with_epoch(self):
        x = np.array([[np.nan, 1.0], [1.0, 0.0]])
        y = np.array([0, 1])
        cfg = TrainConfig(epochs=5, learning_rate=0.01, dropout=0.0, hidden_dims=(4,), seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train_classifier(x, y, np.arange(2), cfg, kind="mlp")

    def test_mlp_reads_only_train_rows(self, rng):
        # Rows 20-22 lie outside train_idx: non-finite features, and class 2
        # appears only there. They must not touch the fit, yet class 2 keeps
        # its output unit.
        x, y = separable_toy(rng)
        x = np.vstack([x, [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, np.nan]]])
        y = np.concatenate([y, [2, 2, 0]])
        train_idx = np.array([0, 3, 5, 11, 14, 19, 7])
        cfg = TrainConfig(epochs=20, learning_rate=0.05, dropout=0.0, hidden_dims=(5,), seed=2)
        model = train_classifier(x, y, train_idx, cfg, kind="mlp")
        assert model.class_count == 3 and model.layers[-1].weight.shape == (5, 3)

        # Reference: the train rows alone, plus one finite placeholder row
        # outside its mask that carries class 2, so the output width matches.
        x_ref = np.vstack([x[train_idx], np.zeros((1, 2))])
        y_ref = np.concatenate([y[train_idx], [2]])
        ref = train_classifier(x_ref, y_ref, np.arange(len(train_idx)), cfg, kind="mlp")
        assert model.loss_history == ref.loss_history
        for got, want in zip(model.layers, ref.layers):
            np.testing.assert_array_equal(got.weight, want.weight)
            np.testing.assert_array_equal(got.bias, want.bias)
        assert np.all(np.isfinite(predict(model, x[:20])[1]))

    def test_weight_decay_one_epoch_is_hand_computed_adam_step(self, rng):
        # one linear layer, no dropout: logits = x @ W + b on every row
        x = rng.normal(size=(12, 4))
        labels = np.array([0, 1, 2] * 4)
        lr, decay = 0.05, 5.0
        cfg = TrainConfig(
            epochs=1, learning_rate=lr, dropout=0.0, hidden_dims=(), weight_decay=decay, seed=3
        )
        w0 = init_model("mlp", 4, 3, cfg).layers[0].weight.copy()
        logits = x @ w0
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        dlogits = (probs - np.eye(3)[labels]) / len(x)
        grad_w = x.T @ dlogits + decay * w0  # decay on the weight, not the bias
        grad_b = dlogits.sum(axis=0)

        def adam_first_step(param, grad):
            m_hat = (1 - 0.9) * grad / (1 - 0.9)
            v_hat = (1 - 0.999) * grad**2 / (1 - 0.999)
            return param - lr * m_hat / (np.sqrt(v_hat) + 1e-8)

        model = train_classifier(x, labels, np.arange(len(x)), cfg, kind="mlp")
        np.testing.assert_allclose(model.layers[0].weight, adam_first_step(w0, grad_w), rtol=1e-12)
        np.testing.assert_allclose(
            model.layers[0].bias, adam_first_step(np.zeros(3), grad_b), rtol=1e-12, atol=1e-15
        )
        # the decay flips some weight gradients, so the step differs without it
        plain = train_classifier(
            x, labels, np.arange(len(x)), replace(cfg, weight_decay=0.0), kind="mlp"
        )
        assert not np.allclose(plain.layers[0].weight, model.layers[0].weight)

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.2])
    def test_dropout_outside_unit_interval_rejected(self, rate):
        # 1.0 would divide 0/0 in the mask; 1.5 and -0.2 would flip or rescale it
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout=rate)

    def test_empty_and_single_class_masks_rejected(self, rng):
        x, y = separable_toy(rng)
        cfg = TrainConfig(epochs=2, hidden_dims=(4,), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train_classifier(x, y, np.array([], dtype=int), cfg, kind="mlp")
        with pytest.raises(ValueError, match="2 classes"):
            train_classifier(x, y, np.arange(3), cfg, kind="mlp")


class TestPredict:
    def test_argmax_and_margin_inputs(self):
        layers = [DenseLayer(np.eye(3), np.zeros(3))]
        model = ClassifierModel("mlp", layers, 0.0, 3)
        labels, probs, logits = predict(model, np.array([[2.0, 0.5, -1.0]]))
        assert labels[0] == 0
        np.testing.assert_array_equal(logits[0], [2.0, 0.5, -1.0])

    def test_uniform_ties_to_lowest_index(self):
        layers = [DenseLayer(np.zeros((2, 3)), np.zeros(3))]
        model = ClassifierModel("mlp", layers, 0.0, 3)
        labels, probs, _ = predict(model, np.ones((4, 2)))
        assert np.all(labels == 0)

    def test_probabilities_normalized(self, rng):
        model = init_model("mlp", 4, 3, TrainConfig(hidden_dims=(5,), seed=2))
        _, probs, _ = predict(model, rng.normal(size=(10, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestGradientCheck:
    def test_mlp_cross_entropy(self, rng):
        model = init_model("mlp", 4, 3, TrainConfig(hidden_dims=(7,), seed=1))
        err = gradient_check(
            model, rng.normal(size=(6, 4)), rng.integers(3, size=6), epsilon=1e-5
        )
        assert err <= 1e-4

    def test_gcn_cross_entropy(self, rng):
        graph = line_graph(6)
        model = init_model("gcn", 4, 3, TrainConfig(hidden_dims=(7,), seed=2))
        err = gradient_check(
            model,
            rng.normal(size=(6, 4)),
            rng.integers(3, size=6),
            epsilon=1e-5,
            adjacency=normalized_adjacency(graph),
        )
        assert err <= 1e-4


class TestDropout:
    def test_counter_stream_reproducible(self):
        a = dropout_mask((5, 5), 0.5, seed=1, epoch=3, layer=0)
        b = dropout_mask((5, 5), 0.5, seed=1, epoch=3, layer=0)
        np.testing.assert_array_equal(a, b)
        c = dropout_mask((5, 5), 0.5, seed=1, epoch=4, layer=0)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("rate", [0.1, 0.25, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (7, 5), (170, 64)])
    def test_mask_is_generator_random_below_keep(self, rate, shape):
        seed, epoch, layer = 3, 41, 1
        key = np.array([seed, (epoch << 8) | layer], dtype=np.uint64)
        keep = 1.0 - rate
        rng = np.random.Generator(np.random.Philox(key=key))
        want = (rng.random(shape) < keep).astype(np.float64) / keep
        got = dropout_mask(shape, rate, seed, epoch, layer)
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got, want)

    def test_eval_mode_has_no_dropout(self, rng):
        model = init_model("mlp", 3, 2, TrainConfig(hidden_dims=(4,), dropout=0.9, seed=0))
        x = rng.normal(size=(4, 3))
        a, _ = forward(model, x, train_mode=False)
        b, _ = forward(model, x, train_mode=False)
        np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_round_trip(self, tmp_path, rng):
        model = init_model("gcn", 4, 3, TrainConfig(hidden_dims=(5,), seed=7))
        path = tmp_path / "model.npz"
        save_model(model, path, encoder_id="hashing-64", config_digest="abc")
        loaded, meta = load_model(path)
        assert meta["encoder_id"] == "hashing-64"
        assert meta["kind"] == "gcn"
        for la, lb in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(la.weight, lb.weight)
            np.testing.assert_array_equal(la.bias, lb.bias)


def numerics_fingerprint():
    """What fixes the bits of float64 training here: numpy, its BLAS and
    the SIMD extensions numpy dispatches to (exp, log and the BLAS kernels
    differ between them)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its config
        return (np.__version__,)
    blas = config["Build Dependencies"]["blas"]
    return (
        np.__version__,
        blas["name"],
        blas["version"],
        tuple(config["SIMD Extensions"]["found"]),
    )


# sha256 of the trained weights and loss_history, taken before the training
# hot path was rewritten (kernel plan, raw-bit dropout masks, in-place Adam).
GOLDEN_FINGERPRINT = (
    "2.4.6", "scipy-openblas", "0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
)
GOLDEN_GCN = {
    0: "44cfa35f22221007c822272564f2f0df0440e1ae0790f76c899c29ba8ec5b9e9",
    1: "ff8f5e44ee3638b01ac773eb65dafa47a3d609a0350c327119c244dd55d02d99",
}
GOLDEN_MLP = "30946b11ba31f664bab0ae66dd61f79d49a2d5c15e5d0a63d71a6179bf90e818"


class TestGoldenBits:
    """Training gives the same bits as before on the same numerics.

    Another numpy, BLAS or CPU may round differently; there the hashes
    say nothing, so the tests skip and name both fingerprints.
    """

    @pytest.fixture(autouse=True)
    def same_numerics(self):
        here = numerics_fingerprint()
        if here != GOLDEN_FINGERPRINT:
            pytest.skip(f"golden hashes taken on {GOLDEN_FINGERPRINT}, running on {here}")

    @pytest.fixture(scope="class")
    def toy_problem(self):
        graph = make_toy_tag(seed=11)
        x = np.random.default_rng(0).normal(size=(graph.node_count, 24))
        train_idx = np.arange(0, graph.node_count, 3)
        return graph, x, np.asarray(graph.labels), train_idx

    @staticmethod
    def digest(model):
        h = hashlib.sha256()
        for layer in model.layers:
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
        h.update(np.asarray(model.loss_history, dtype=np.float64).tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gcn_with_dropout(self, toy_problem, seed):
        graph, x, y, train_idx = toy_problem
        cfg = TrainConfig(
            epochs=30, learning_rate=0.01, dropout=0.5, hidden_dims=(16, 16), seed=seed
        )
        model = train_classifier(
            x, y, train_idx, cfg, kind="gcn", adjacency=normalized_adjacency(graph)
        )
        assert self.digest(model) == GOLDEN_GCN[seed]

    def test_wide_mlp_with_weight_decay(self, toy_problem):
        _graph, x, y, train_idx = toy_problem
        cfg = TrainConfig(
            epochs=30, learning_rate=0.01, dropout=0.0, hidden_dims=(256,),
            weight_decay=5e-4, seed=0,
        )
        model = train_classifier(x, y, train_idx, cfg, kind="mlp")
        assert self.digest(model) == GOLDEN_MLP
