import hashlib
import inspect
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from tagaug import graph as graph_module
from tagaug import kernels, neural
from tagaug.fixtures import make_toy_tag
from tagaug.graph import TextGraph, normalized_adjacency
from tagaug.neural import (
    ClassifierModel,
    DenseLayer,
    TrainConfig,
    TrainingDivergedError,
    aggregate_layer,
    backward,
    confidence_train_defaults,
    dropout_mask,
    forward,
    gradient_check,
    init_model,
    masked_cross_entropy,
    predict,
    train_classifier,
    train_jobs,
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


def test_gcn_training_holds_one_epoch_of_caches():
    # Epoch t's caches are gone before epoch t + 1's forward, so more
    # epochs do not raise the peak.
    rng = np.random.default_rng(0)
    n, dim = 2000, 128
    pairs = {tuple(sorted(p)) for p in rng.integers(n, size=(6000, 2)).tolist() if p[0] != p[1]}
    labels = rng.integers(3, size=n)
    graph = TextGraph(n, ("t",) * n, tuple(labels.tolist()), ("a", "b", "c"), tuple(pairs))
    adj = normalized_adjacency(graph)
    features = rng.normal(size=(n, dim))

    def peak(epochs):
        cfg = TrainConfig(epochs=epochs, dropout=0.5, hidden_dims=(64, 64), seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_classifier(features, labels, np.arange(0, n, 3), cfg, kind="gcn", adjacency=adj)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations stay out of the measurement
    assert peak(3) <= 1.05 * peak(1)


def random_gcn_problem(n=3000, dim=32, seed=0):
    rng = np.random.default_rng(seed)
    pairs = {tuple(sorted(p)) for p in rng.integers(n, size=(3 * n, 2)).tolist() if p[0] != p[1]}
    labels = rng.integers(4, size=n)
    graph = TextGraph(n, ("t",) * n, tuple(labels.tolist()), tuple("abcd"), tuple(pairs))
    return graph, rng.normal(size=(n, dim)), labels


def test_gcn_training_peak_is_backward_inputs_and_one_product():
    # The traced peak of 3 GCN epochs (hidden 64, 64) on 2000 nodes with 128
    # features, in N x 64 float64 arrays. It falls in layer 1's backward
    # sparse product, beside what the design keeps alive there:
    #   layer 0's dropped input (128 wide)                        2
    #   layer 1's dropped input                                   1
    #   the gradient going into the product                       1
    #   the step-major product, one range here: output, the
    #   range's accumulator and one chunk's gather                3
    #   three bool flags (1/8 each), Adam's five copies of the
    #   parameters (1/2), logits and their gradient (N x 4)       1
    # That is 8 (8.18 measured); the bound leaves 0.5 for the small arrays.
    # A second gather alive took it to 9.11, and float masks and
    # pre-activations in the caches to 15.7.
    graph, features, labels = random_gcn_problem(n=2000, dim=128)
    adj = normalized_adjacency(graph)
    assert isinstance(adj.plan, list) and len(adj.plan) == 1  # step-major, one range

    def peak(epochs):
        cfg = TrainConfig(epochs=epochs, dropout=0.5, hidden_dims=(64, 64), seed=0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            train_classifier(features, labels, np.arange(0, 2000, 3), cfg, kind="gcn",
                             adjacency=adj)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations stay out of the measurement
    assert peak(3) <= 8.5 * 2000 * 64 * 8


def force_split(monkeypatch, cpus):
    """Run every product and mask on `cpus` threads, however small."""
    monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
    monkeypatch.setattr(neural, "MASK_RANGE_MIN_WORDS", 1)
    monkeypatch.setattr(neural, "MASK_BLOCK_WORDS", 4096)


def train_random_gcn(problem):
    graph, features, labels = problem
    cfg = TrainConfig(epochs=2, dropout=0.5, hidden_dims=(64, 64), seed=3)
    adj = normalized_adjacency(graph)  # a fresh plan, split as forced now
    model = train_classifier(features, labels, np.arange(0, len(labels), 3), cfg,
                             kind="gcn", adjacency=adj)
    return adj, model


def test_split_gcn_training_has_the_same_bits(monkeypatch):
    problem = random_gcn_problem()
    runs = {}
    for cpus in (1, 4):
        force_split(monkeypatch, cpus)
        adj, runs[cpus] = train_random_gcn(problem)
        assert len(adj.plan) == (kernels.PIECES_PER_THREAD * cpus if cpus > 1 else 1)
    one, split = runs[1], runs[4]
    assert one.loss_history == split.loss_history
    for a, b in zip(one.layers, split.layers):
        assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_split_kernels_call_nothing_public_off_the_calling_thread(monkeypatch):
    # pipebench's tracer wraps these functions in every tagaug namespace
    # and keeps one span stack, so none of them may run on a range thread.
    # train_jobs' job threads do call them, by design: each job is a whole
    # training, and the tracer's spans under train-eval overlap.
    calls, thread_counts = [], []

    def wrap(name, func):
        def wrapped(*args, **kwargs):
            before = threading.active_count()
            calls.append((name, threading.get_ident()))
            result = func(*args, **kwargs)
            if name in ("csr_matmul", "dropout_mask"):
                thread_counts.append((name, before, threading.active_count()))
            return result

        return wrapped

    namespaces = [m for name, m in sys.modules.items() if name.split(".")[0] == "tagaug"]
    for module in (kernels, neural, graph_module):
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            wrapper = wrap(attr, value)
            for namespace in namespaces:
                for bound, held in list(vars(namespace).items()):
                    if held is value:
                        monkeypatch.setattr(namespace, bound, wrapper)

    force_split(monkeypatch, 4)
    train_random_gcn(random_gcn_problem(n=1000))
    names = {name for name, _ident in calls}
    assert {"csr_matmul", "csr_plan", "dropout_mask", "forward", "backward"} <= names
    assert {ident for _name, ident in calls} == {threading.get_ident()}
    assert {"csr_matmul", "dropout_mask"} == {name for name, _b, _a in thread_counts}
    assert all(before == after for _name, before, after in thread_counts)


def usable_cpus(monkeypatch, cpus, blas_threads=1):
    """The process's CPU affinity reads as `cpus` CPUs, and its BLAS as
    running each product on `blas_threads` threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(neural, "_blas_threads", lambda: blas_threads)


@pytest.mark.parametrize("cpus", [1, 3, 10])
def test_train_jobs_gives_the_bits_of_sequential_training(monkeypatch, cpus):
    # At 10 CPUs each of the 5 jobs splits its products and masks over 2.
    usable_cpus(monkeypatch, cpus)
    monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
    monkeypatch.setattr(kernels, "RANGE_MIN_ENTRIES", 1)
    monkeypatch.setattr(neural, "MASK_RANGE_MIN_WORDS", 1)
    graph = make_toy_tag(seed=11)
    features = np.random.default_rng(0).normal(size=(graph.node_count, 24))
    train_idx = np.arange(0, graph.node_count, 3)
    adj = normalized_adjacency(graph)
    # Every array the jobs share is read-only, so a write from any job raises.
    arrays = [features, adj.indptr, adj.indices, adj.data]
    for _lo, order, chunks in adj.plan:
        arrays += [order, *(a for cols, vals, _widths in chunks for a in (cols, vals))]
    for array in arrays:
        array.flags.writeable = False
    gcn = [
        partial(train_classifier, features, graph.labels, train_idx,
                TrainConfig(epochs=6, hidden_dims=(16, 16), seed=seed), kind="gcn",
                adjacency=adj)
        for seed in (0, 1, 2)
    ]
    mlp = [
        partial(train_classifier, features, graph.labels, train_idx,
                TrainConfig(epochs=6, dropout=0.3, hidden_dims=(32,), seed=4)),
        partial(train_classifier, features, graph.labels, train_idx,
                TrainConfig(epochs=6, dropout=0.0, hidden_dims=(64,), weight_decay=5e-4)),
    ]
    jobs = gcn + mlp
    for alone, side_by_side in zip([job() for job in jobs], train_jobs(jobs)):
        assert alone.loss_history == side_by_side.loss_history
        for a, b in zip(alone.layers, side_by_side.layers):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)


def test_train_jobs_returns_results_in_job_order(monkeypatch):
    # More threads than cores, switching as often as the interpreter allows:
    # each job runs once, whichever thread takes it, and lands in its slot.
    usable_cpus(monkeypatch, 8)
    started = []

    def job(index):
        started.append(index)
        time.sleep(0.001 * (index % 3))
        return index

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = train_jobs([partial(job, index) for index in range(64)])
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(64))
    assert sorted(started) == list(range(64))


@pytest.mark.parametrize("first, later", [
    (ValueError, KeyError), (ValueError, KeyboardInterrupt), (KeyboardInterrupt, ValueError),
])
def test_train_jobs_raises_the_lowest_index_error(monkeypatch, first, later):
    # Job 0 raises after job 1 has. Each thread checks for an error before
    # it takes a job, so neither takes job 2 after its own job failed.
    usable_cpus(monkeypatch, 2)
    job_1_raised, started = threading.Event(), []

    def job_0():
        assert job_1_raised.wait(10)
        raise first("job 0")

    def job_1():
        job_1_raised.set()
        raise later("job 1")

    with pytest.raises(first, match="job 0"):
        train_jobs([job_0, job_1, partial(started.append, 2)])
    assert started == []


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_no_job_starts_after_a_failure(monkeypatch, error):
    # On one CPU the jobs run in order on the calling thread; Ctrl-C there
    # arrives as a KeyboardInterrupt raised inside the running job.
    usable_cpus(monkeypatch, 1)
    started = []

    def failing():
        started.append(1)
        raise error("job 1")

    with pytest.raises(error, match="job 1"):
        train_jobs([partial(started.append, 0), failing, partial(started.append, 2)])
    assert started == [0, 1]


@pytest.mark.parametrize("cpus, jobs, share", [
    (4, 2, 2), (4, 3, 1), (5, 2, 2), (2, 5, 1), (1, 3, 1), (4, 1, 4),
])
def test_each_job_sees_its_share_of_the_cpus(monkeypatch, cpus, jobs, share):
    usable_cpus(monkeypatch, cpus)
    assert train_jobs([kernels._usable_cpus] * jobs) == [share] * jobs
    assert kernels._usable_cpus() == cpus  # the calling thread's view is back
    # A job that runs jobs of its own gets its share back after them, so a
    # second cell on the same thread is not left on one CPU.
    inner = partial(train_jobs, [kernels._usable_cpus] * 2)
    seen = train_jobs([lambda: (inner(), kernels._usable_cpus())] * jobs)
    assert seen == [([max(1, share // min(2, share))] * 2, share)] * jobs
    assert kernels._usable_cpus() == cpus


@pytest.mark.parametrize("cpus, blas_threads, share", [
    (1, 1, 1), (4, 1, 1), (4, 2, 2), (2, 2, 2), (3, 2, 3),
])
def test_jobs_at_once_fit_the_cpus_and_blas_threads(monkeypatch, cpus, blas_threads, share):
    # Only as many jobs run at once as the CPUs hold sets of BLAS threads;
    # with room for one, they run in order on the calling thread, which then
    # starts no thread. Every thread started is joined before the return.
    usable_cpus(monkeypatch, cpus, blas_threads)
    before = threading.active_count()
    seen = train_jobs([lambda: (kernels._usable_cpus(), threading.active_count())] * 3)
    assert threading.active_count() == before
    assert [cpus_seen for cpus_seen, _count in seen] == [share] * 3
    assert max(count for _cpus, count in seen) <= before + min(3, cpus // blas_threads) - 1
    assert cpus // blas_threads > 1 or seen == [(share, before)] * 3


def test_side_by_side_jobs_run_no_more_threads_than_cpus(monkeypatch):
    # Each job splits its ranges over its share, so 2 jobs on 4 CPUs run 4
    # threads at most, where 4 each would run 7.
    usable_cpus(monkeypatch, 4)
    counts = []

    def fill(_i):
        counts.append(threading.active_count())
        time.sleep(0.005)

    before = threading.active_count()
    train_jobs([partial(kernels._run_ranges, fill, [(i,) for i in range(8)])] * 2)
    assert max(counts) <= before + 3


def reference_forward(model, features, adjacency=None, train_mode=False, seed=0, epoch=0):
    """Oracle: forward keeping each layer's float dropout mask and
    pre-activation, as training did before its caches held bool flags; in
    the model's dtype."""
    h = np.asarray(features, dtype=model.dtype)
    caches = []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        mask, dropped = None, h
        if train_mode and model.dropout_rate > 0:
            mask = dropout_mask(h.shape, model.dropout_rate, seed, epoch, i, model.dtype)
            dropped = h * mask
        z = dropped @ layer.weight
        if model.kind == "gcn":
            z = adjacency.matmul(z)
        z = z + layer.bias
        caches.append((dropped, mask if i else None, z))
        h = np.maximum(z, 0.0) if i < last else z
    return h, caches


def reference_backward(model, caches, dlogits, adjacency=None):
    """Oracle: backward from reference_forward's float caches."""
    grads = []
    g_out = dlogits
    last = len(model.layers) - 1
    for i in range(last, -1, -1):
        dropped, mask, pre_act = caches[i]
        gz = g_out if i == last else g_out * (pre_act > 0.0)
        ga = adjacency.matmul(gz) if model.kind == "gcn" else gz
        grads.insert(0, (dropped.T @ ga, gz.sum(axis=0)))
        if i > 0:
            g_out = ga @ model.layers[i].weight.T
            if mask is not None:
                g_out = g_out * mask
    return grads


class TestBackwardBits:
    """forward and backward give the reference's bits from bool caches."""

    @staticmethod
    def problem(kind, planted, dtype):
        # 40 nodes, 3 layers: layers 1 and 2 keep dropout flags, 0 and 1
        # ReLU flags. Features are signed with exact zeros of both signs,
        # and a zero weight column and bias make one pre-activation column
        # exactly 0.
        rng = np.random.default_rng(5)
        n = 40
        graph, _x, labels = random_gcn_problem(n=n, dim=1, seed=5)
        cfg = TrainConfig(hidden_dims=(6, 5), dropout=0.3, seed=2)
        model = init_model(kind, 7, 4, cfg, dtype)
        model.layers[0].weight[:, 2] = 0.0
        x = rng.normal(size=(n, 7))
        x[rng.random(size=x.shape) < 0.2] = 0.0
        x[3, :4] = -0.0
        if planted == "feature_inf":
            x[7, 1] = np.inf
        return model, x.astype(dtype), labels, normalized_adjacency(graph, dtype)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("planted", ["none", "feature_inf", "dlogits_inf"])
    @pytest.mark.parametrize("train_mode", [True, False])
    @pytest.mark.parametrize("kind", ["gcn", "gcn_step_major", "mlp"])
    def test_gradients_are_reference_bits(self, monkeypatch, kind, train_mode, planted):
        self.check_reference_bits(monkeypatch, kind, train_mode, planted, np.float64)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("planted", ["none", "feature_inf", "dlogits_inf"])
    @pytest.mark.parametrize("train_mode", [True, False])
    @pytest.mark.parametrize("kind", ["gcn", "gcn_step_major", "mlp"])
    def test_float32_gradients_are_reference_bits(self, monkeypatch, kind, train_mode, planted):
        self.check_reference_bits(monkeypatch, kind, train_mode, planted, np.float32)

    def check_reference_bits(self, monkeypatch, kind, train_mode, planted, dtype):
        if kind == "gcn_step_major":
            monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
            kind = "gcn"
        model, x, labels, adj = self.problem(kind, planted, dtype)
        x_bytes = x.tobytes()
        run = dict(adjacency=adj if kind == "gcn" else None)
        want_logits, want_caches = reference_forward(model, x, train_mode=train_mode,
                                                     seed=3, epoch=8, **run)
        logits, caches = forward(model, x, train_mode=train_mode, seed=3, epoch=8, **run)
        assert logits.tobytes() == want_logits.tobytes()
        assert x.tobytes() == x_bytes

        _loss, dlogits = masked_cross_entropy(want_logits, labels, np.arange(0, 40, 2))
        if planted == "dlogits_inf":
            # inf meets the dropped entries of its rows (inf x 0 is NaN)
            dlogits[4, 1] = np.inf
            dlogits[6, 0] = -0.0
        want = reference_backward(model, want_caches, dlogits.copy(), **run)
        got = backward(model, caches, dlogits, **run)
        assert caches == [None] * len(model.layers)
        assert logits.dtype == dlogits.dtype == dtype
        for (dw, db), (want_dw, want_db) in zip(got, want):
            assert dw.dtype == db.dtype == dtype
            assert dw.tobytes() == want_dw.tobytes()
            assert db.tobytes() == want_db.tobytes()
        if planted != "none":
            assert not np.all(np.isfinite(got[0][0]))

    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    def test_three_layer_gradient_check(self, kind):
        # no exact-zero pre-activations: central differences straddle the kink
        graph, x, labels = random_gcn_problem(n=40, dim=7, seed=5)
        model = init_model(kind, 7, 4, TrainConfig(hidden_dims=(6, 5), seed=0))
        adj = normalized_adjacency(graph) if kind == "gcn" else None
        assert gradient_check(model, x, labels, adjacency=adj) <= 1e-4


class TestCrossEntropyFloor:
    def test_float32_underflowed_probability_gives_a_finite_loss(self):
        # exp(-200) underflows float32 to 0, the probability row 0 picks;
        # it is floored at float32's smallest normal number, not at 0.
        logits = np.array([[0.0, -200.0], [0.0, -200.0]], dtype=np.float32)
        loss, dlogits = masked_cross_entropy(logits, np.array([1, 0]), np.array([0]))
        assert loss == float(-np.log(np.finfo(np.float32).tiny))
        assert dlogits.dtype == np.float32
        assert dlogits.tolist() == [[1.0, -1.0], [0.0, 0.0]]

    def test_float32_training_through_an_underflow_does_not_diverge(self):
        # One row's logits start 200 apart, wrong way round for its label;
        # a zero learning rate keeps them so.
        layers = [DenseLayer(np.array([[0.0, -200.0]], dtype=np.float32),
                             np.zeros(2, dtype=np.float32))]
        cfg = TrainConfig(epochs=2, learning_rate=0.0, dropout=0.0, hidden_dims=(), seed=0)
        x = np.array([[1.0], [0.0]], dtype=np.float32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(neural, "init_model",
                       lambda *args: ClassifierModel("mlp", layers, 0.0, 2))
            model = train_classifier(x, np.array([1, 0]), np.arange(2), cfg, kind="mlp")
        assert all(np.isfinite(model.loss_history))

    def test_float64_floor_is_1e_300(self):
        logits = np.array([[0.0, -800.0]])  # exp(-800) underflows float64
        loss, _ = masked_cross_entropy(logits, np.array([1]), np.array([0]))
        assert loss == float(-np.log(1e-300))


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

    # 2**-53 and 1 - 2**-53 put the kept-word bound at its largest and
    # smallest (2**64 - 2049 and 2047); at 0 and 1e-20, keep rounds to 1.0.
    @pytest.mark.parametrize(
        "rate", [0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 2**-53, 1 - 2**-53, 0.0, 1e-20]
    )
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

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3), (7, 5), (13, 11), (0, 3)])
    def test_split_mask_is_generator_random_below_keep(self, monkeypatch, cpus, shape):
        # Word counts 1, 9, 35 and 143 are multiples of neither 4 nor most
        # range counts; 5-word blocks straddle the Philox 4-word blocks.
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(neural, "MASK_RANGE_MIN_WORDS", 1)
        monkeypatch.setattr(neural, "MASK_BLOCK_WORDS", 5)
        seed, epoch, layer, keep = 9, 2, 1, 0.6
        key = np.array([seed, (epoch << 8) | layer], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        want = (rng.random(shape) < keep).astype(np.float64) / keep
        assert np.array_equal(dropout_mask(shape, 1.0 - keep, seed, epoch, layer), want)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.9, 2**-53, 1 - 2**-53, 0.0])
    @pytest.mark.parametrize("cpus", [1, 3])
    def test_float32_mask_keeps_the_float64_entries(self, monkeypatch, rate, cpus):
        monkeypatch.setattr(kernels, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(neural, "MASK_RANGE_MIN_WORDS", 1)
        monkeypatch.setattr(neural, "MASK_BLOCK_WORDS", 5)
        shape = (37, 11)
        want = dropout_mask(shape, rate, seed=3, epoch=41, layer=1)
        got = dropout_mask(shape, rate, seed=3, epoch=41, layer=1, dtype=np.float32)
        assert got.dtype == np.float32 and got.shape == shape
        assert np.array_equal(got != 0, want != 0)
        assert np.all(got[got != 0] == np.float32(1.0 / (1.0 - rate)))

    def test_mask_peak_is_close_to_its_bytes(self):
        shape = (10_000, 256)
        dropout_mask((8, 8), 0.5, 0, 0, 0)  # numpy's lazy set-up, outside the peak
        tracemalloc.start()
        try:
            mask = dropout_mask(shape, 0.5, seed=0, epoch=1, layer=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * mask.nbytes

    def test_eval_mode_has_no_dropout(self, rng):
        model = init_model("mlp", 3, 2, TrainConfig(hidden_dims=(4,), dropout=0.9, seed=0))
        x = rng.normal(size=(4, 3))
        a, _ = forward(model, x, train_mode=False)
        b, _ = forward(model, x, train_mode=False)
        np.testing.assert_array_equal(a, b)


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
# GOLDEN_GCN holds with the step-major product forced; GOLDEN_GCN_DENSE is
# the same training on the toy adjacency's default, dense product.
GOLDEN_FINGERPRINT = (
    "2.4.6", "scipy-openblas", "0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
)
GOLDEN_GCN = {
    0: "44cfa35f22221007c822272564f2f0df0440e1ae0790f76c899c29ba8ec5b9e9",
    1: "ff8f5e44ee3638b01ac773eb65dafa47a3d609a0350c327119c244dd55d02d99",
}
GOLDEN_GCN_DENSE = {
    0: "1a5260e157557a8384380dd64646c4395efe8d87bdfbd46ee10cc2ddbaf372be",
    1: "b245408ba757f3f4a4de6cd27d1ee42e9e7f42ae435aa8c68ee3c288708fb2e3",
}
GOLDEN_MLP = "30946b11ba31f664bab0ae66dd61f79d49a2d5c15e5d0a63d71a6179bf90e818"
# The same trainings on float32 features (and a float32 adjacency), taken
# when training learned to run in float32.
GOLDEN_GCN_F32 = {
    0: "af6bafbf932eec214ef086a3259707cfc1cbd0044c39e262df8a57b87ac354c6",
    1: "9069c87c909cbe3d5b49c219ddde68212b94705b86b0ef4cdb569125df40e8b1",
}
GOLDEN_GCN_DENSE_F32 = {
    0: "9466c0b3d7bac242be8d5371eb87022b371050efb2f4570d17c9d2fef29c4b9c",
    1: "ae0d558c5f9762d31a3ed2f6350b9b973d77e0f824c665cb15952a2f18cb6d8e",
}
GOLDEN_MLP_F32 = "211e372cc2ae5e88a6d7075a73853f3f691ac469faaec70be057761ca335b842"


def golden_toy_problem():
    """TestGoldenBits' problem: the toy graph at seed 11, 24 normal
    features per node, every third node in the training mask."""
    graph = make_toy_tag(seed=11)
    x = np.random.default_rng(0).normal(size=(graph.node_count, 24))
    train_idx = np.arange(0, graph.node_count, 3)
    return graph, x, np.asarray(graph.labels), train_idx


def float_arrays(value):
    """Every float array in value, looking into tuples, lists and caches."""
    if isinstance(value, np.ndarray):
        return [value] if value.dtype.kind == "f" else []
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in float_arrays(item)]
    if isinstance(value, neural._LayerCache):
        return float_arrays(list(vars(value).values()))
    return []


@pytest.mark.parametrize("kind", ["gcn", "gcn_step_major", "mlp"])
def test_float32_training_promotes_nothing_to_float64(monkeypatch, kind):
    # Every float array training makes is float32: the weights, the Adam
    # state, forward's logits and caches, the dropout masks, the sparse
    # products, the loss gradient and backward's parameter gradients.
    if kind == "gcn_step_major":
        monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)
        kind = "gcn"
    seen = {}

    def record(namespace, name):
        func = getattr(namespace, name)

        def wrapped(*args, **kwargs):
            out = func(*args, **kwargs)
            seen.setdefault(name, []).extend(float_arrays(out))  # before backward frees caches
            return out

        monkeypatch.setattr(namespace, name, wrapped)

    for name in ("forward", "backward", "masked_cross_entropy", "dropout_mask"):
        record(neural, name)
    record(graph_module, "csr_matmul")
    adam = []

    def profile(frame, event, _arg):
        if event == "return" and frame.f_code is train_classifier.__code__:
            adam.extend(float_arrays(frame.f_locals["adam"]))

    graph, x, y, train_idx = golden_toy_problem()
    cfg = TrainConfig(epochs=3, dropout=0.5, hidden_dims=(16, 16), weight_decay=5e-4, seed=0)
    adj = normalized_adjacency(graph, np.float32) if kind == "gcn" else None
    sys.setprofile(profile)
    try:
        model = train_classifier(x.astype(np.float32), y, train_idx, cfg, kind=kind,
                                 adjacency=adj)
    finally:
        sys.setprofile(None)
    seen["adam"] = adam
    seen["model"] = float_arrays([[l.weight, l.bias] for l in model.layers])
    # the weights and biases, and four Adam arrays for each
    assert len(seen["adam"]) == 5 * len(seen["model"]) == 5 * 2 * 3
    want = {"forward", "backward", "masked_cross_entropy", "dropout_mask", "adam", "model"}
    assert set(seen) == want | ({"csr_matmul"} if kind == "gcn" else set())
    for name, arrays in seen.items():
        assert arrays and {a.dtype for a in arrays} == {np.dtype(np.float32)}, name
    # predict casts float64 rows to the model's dtype
    _labels, probs, logits = predict(model, x, adjacency=adj)
    assert probs.dtype == logits.dtype == np.float32


def test_float32_gcn_refuses_a_float64_adjacency():
    graph, x, y, train_idx = golden_toy_problem()
    cfg = TrainConfig(epochs=1, hidden_dims=(4,), seed=0)
    with pytest.raises(ValueError, match="adjacency stores float64 but the model computes in"):
        train_classifier(x.astype(np.float32), y, train_idx, cfg, kind="gcn",
                         adjacency=normalized_adjacency(graph))


@pytest.mark.parametrize("seed", [0, 1])
def test_float32_training_follows_float64_on_the_golden_toy_problem(seed):
    # TestGoldenBits' GCN, trained 300 epochs in each dtype on the same
    # features: the loss histories agree within 1e-4 relative (3.7e-7 and
    # 4.3e-7 at seeds 0 and 1 on GOLDEN_FINGERPRINT's numerics), and every
    # node gets the same prediction.
    graph, x, y, train_idx = golden_toy_problem()
    cfg = TrainConfig(epochs=300, learning_rate=0.01, dropout=0.5, hidden_dims=(16, 16),
                      seed=seed)
    runs = []
    for dtype in (np.float64, np.float32):
        adj = normalized_adjacency(graph, dtype)
        model = train_classifier(x.astype(dtype), y, train_idx, cfg, kind="gcn",
                                 adjacency=adj)
        runs.append((model.loss_history, predict(model, x, adjacency=adj)[0]))
    (loss64, pred64), (loss32, pred32) = runs
    np.testing.assert_allclose(loss32, loss64, rtol=1e-4)
    assert np.array_equal(pred32, pred64)


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
        return golden_toy_problem()

    @staticmethod
    def digest(model):
        h = hashlib.sha256()
        for layer in model.layers:
            h.update(layer.weight.tobytes())
            h.update(layer.bias.tobytes())
        h.update(np.asarray(model.loss_history, dtype=np.float64).tobytes())
        return h.hexdigest()

    def train_gcn(self, toy_problem, seed, dtype=np.float64):
        graph, x, y, train_idx = toy_problem
        cfg = TrainConfig(
            epochs=30, learning_rate=0.01, dropout=0.5, hidden_dims=(16, 16), seed=seed
        )
        model = train_classifier(
            x.astype(dtype), y, train_idx, cfg, kind="gcn",
            adjacency=normalized_adjacency(graph, dtype),
        )
        return self.digest(model)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gcn_with_dropout(self, toy_problem, seed, monkeypatch):
        monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)  # step-major
        assert self.train_gcn(toy_problem, seed) == GOLDEN_GCN[seed]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gcn_with_dropout_dense_product(self, toy_problem, seed):
        assert self.train_gcn(toy_problem, seed) == GOLDEN_GCN_DENSE[seed]

    def train_mlp(self, toy_problem, dtype=np.float64):
        _graph, x, y, train_idx = toy_problem
        cfg = TrainConfig(
            epochs=30, learning_rate=0.01, dropout=0.0, hidden_dims=(256,),
            weight_decay=5e-4, seed=0,
        )
        return self.digest(train_classifier(x.astype(dtype), y, train_idx, cfg, kind="mlp"))

    def test_wide_mlp_with_weight_decay(self, toy_problem):
        assert self.train_mlp(toy_problem) == GOLDEN_MLP

    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_gcn_with_dropout(self, toy_problem, seed, monkeypatch):
        monkeypatch.setattr(kernels, "DENSE_CELLS_PER_ENTRY", 0)  # step-major
        assert self.train_gcn(toy_problem, seed, np.float32) == GOLDEN_GCN_F32[seed]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_float32_gcn_with_dropout_dense_product(self, toy_problem, seed):
        assert self.train_gcn(toy_problem, seed, np.float32) == GOLDEN_GCN_DENSE_F32[seed]

    def test_float32_wide_mlp_with_weight_decay(self, toy_problem):
        assert self.train_mlp(toy_problem, np.float32) == GOLDEN_MLP_F32
