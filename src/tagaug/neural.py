"""From-scratch differentiable kernels: dense layers, a graph-convolution
forward/backward pass, an abstract self/neighbor aggregator, softmax
cross-entropy, an Adam optimizer, and a central-difference gradient checker.

Everything is float64 and deterministic for a fixed seed: weight init uses
a seeded PCG64 stream, dropout masks come from a counter-based Philox
stream keyed by (seed, epoch, layer), and the sparse product accumulates
each row in index order (see kernels.py).

A dropout mask reads the Philox stream's raw 64-bit words. numpy's
``Generator.random`` turns a word into the double ``(raw >> 11) * 2**-53``,
and that double is below ``keep`` exactly when the integer ``raw >> 11`` is
below ``ceil(keep * 2**53)`` (scaling by a power of two is exact). So the
mask keeps the same entries as ``Generator(Philox(key)).random(shape) < keep``
without building the doubles.

Training is full-batch. A GCN runs over every row, because neighbours feed
the rows the loss reads. An MLP's rows are independent, so it trains on the
train_idx rows alone and its dropout masks have that shape; prediction
still scores every row. backward returns parameter gradients only.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

CHECKPOINT_VERSION = 1

# Entries of each weight and bias array that gradient_check perturbs.
GRAD_CHECK_SAMPLES = 6


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch, loss):
        super().__init__(f"non-finite loss at epoch {epoch}: {loss}")
        self.epoch = epoch


@dataclass
class DenseLayer:
    weight: np.ndarray  # (in_dim, out_dim)
    bias: np.ndarray  # (out_dim,)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")


@dataclass
class ClassifierModel:
    kind: str  # gcn | mlp
    layers: list
    dropout_rate: float
    class_count: int
    loss_history: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in ("gcn", "mlp"):
            raise ValueError(f"unknown model kind: {self.kind}")
        dims = [l.weight.shape for l in self.layers]
        for a, b in zip(dims, dims[1:]):
            if a[1] != b[0]:
                raise ValueError(f"layer dimensions do not chain: {a} -> {b}")
        if dims and dims[-1][1] != self.class_count:
            raise ValueError("final out_dim must equal class_count")


@dataclass
class TrainConfig:
    epochs: int = 1000
    learning_rate: float = 0.01
    dropout: float = 0.5
    hidden_dims: tuple = (64, 64)
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")


def confidence_train_defaults():
    """Confidence-MLP defaults: one 256-unit hidden layer, dropout 0, lr 0.001."""
    return TrainConfig(epochs=1000, learning_rate=0.001, dropout=0.0, hidden_dims=(256,))


def init_model(kind, in_dim, class_count, cfg):
    """Fan-in-scaled uniform init, seeded."""
    rng = np.random.default_rng(cfg.seed)
    dims = [in_dim, *cfg.hidden_dims, class_count]
    layers = []
    for a, b in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(a)
        layers.append(
            DenseLayer(
                weight=rng.uniform(-bound, bound, size=(a, b)),
                bias=np.zeros(b),
            )
        )
    return ClassifierModel(
        kind=kind, layers=layers, dropout_rate=cfg.dropout, class_count=class_count
    )


def dropout_mask(shape, rate, seed, epoch, layer):
    """Inverted-dropout mask from a Philox stream keyed by (seed, epoch, layer)."""
    key = np.array(
        [int(seed) & 0xFFFFFFFFFFFFFFFF, (int(epoch) << 8) | int(layer)],
        dtype=np.uint64,
    )
    keep = 1.0 - rate
    bits = np.random.Philox(key=key).random_raw(math.prod(shape))
    bits >>= 11
    kept = bits < math.ceil(keep * 2.0**53)  # Generator.random(shape) < keep
    return kept.reshape(shape) * (1.0 / keep)  # 1.0 / keep or 0.0, as in kept / keep


@dataclass
class _LayerCache:
    dropped: np.ndarray
    mask: np.ndarray
    pre_act: np.ndarray


def forward(model, features, adjacency=None, train_mode=False, seed=0, epoch=0):
    """Logits plus per-layer caches for backward.

    Each layer computes A_hat @ (drop(h) @ W) + b (the adjacency product is
    skipped for MLPs); ReLU between layers, dropout before every weight
    multiply in train mode.
    """
    if model.kind == "gcn" and adjacency is None:
        raise ValueError("gcn forward requires an adjacency")
    h = np.asarray(features, dtype=np.float64)
    caches = []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if h.shape[1] != layer.weight.shape[0]:
            raise ValueError(
                f"layer {i}: input dim {h.shape[1]} != weight rows "
                f"{layer.weight.shape[0]}"
            )
        if train_mode and model.dropout_rate > 0:
            mask = dropout_mask(h.shape, model.dropout_rate, seed, epoch, i)
            dropped = h * mask
        else:
            mask = None
            dropped = h
        z = dropped @ layer.weight
        if model.kind == "gcn":
            z = adjacency.matmul(z)
        z = z + layer.bias
        caches.append(_LayerCache(dropped=dropped, mask=mask, pre_act=z))
        h = np.maximum(z, 0.0) if i < last else z
    return h, caches


def backward(model, caches, dlogits, adjacency=None):
    """Parameter gradients from the logit gradient (adjacency is symmetric)."""
    grads = [None] * len(model.layers)
    g_out = dlogits
    last = len(model.layers) - 1
    for i in range(last, -1, -1):
        cache = caches[i]
        gz = g_out if i == last else g_out * (cache.pre_act > 0.0)
        db = gz.sum(axis=0)
        ga = adjacency.matmul(gz) if model.kind == "gcn" else gz
        grads[i] = (cache.dropped.T @ ga, db)
        if i > 0:  # nothing reads the gradient of the input features
            g_out = ga @ model.layers[i].weight.T
            if cache.mask is not None:
                g_out = g_out * cache.mask
    return grads


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    return expv / expv.sum(axis=1, keepdims=True)


def masked_cross_entropy(logits, labels, idx):
    """Mean softmax cross-entropy over the rows in idx.

    Returns (loss, dlogits) with dlogits zero outside idx.
    """
    idx = np.asarray(idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    sub = logits[idx]
    probs = softmax(sub)
    y = labels[idx]
    picked = np.clip(probs[np.arange(len(idx)), y], 1e-300, None)
    loss = float((-np.log(picked)).sum() / len(idx))
    dsub = probs
    dsub[np.arange(len(idx)), y] -= 1.0
    dsub *= 1.0 / len(idx)
    dlogits = np.zeros_like(logits)
    dlogits[idx] = dsub
    return loss, dlogits


def train_classifier(
    features,
    labels,
    train_idx,
    cfg,
    kind="mlp",
    adjacency=None,
):
    """Full-batch Adam training of a GCN or MLP, deterministic per seed."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(train_idx) == 0:
        raise ValueError("training mask is empty")
    class_count = int(labels.max()) + 1
    if len(set(labels[train_idx].tolist())) < 2:
        raise ValueError("training mask must cover at least 2 classes")

    features = np.asarray(features, dtype=np.float64)
    if kind == "mlp":  # rows are independent: fit only the rows the loss reads
        features, labels = features[train_idx], labels[train_idx]
        train_idx = np.arange(len(train_idx))
    model = init_model(kind, features.shape[1], class_count, cfg)

    # Adam state per parameter: [param, m, v, scratch, scratch], updated in place.
    adam = [
        [[p, *(np.zeros_like(p) for _ in range(4))] for p in (l.weight, l.bias)]
        for l in model.layers
    ]

    for epoch in range(cfg.epochs):
        logits, caches = forward(
            model,
            features,
            adjacency=adjacency,
            train_mode=True,
            seed=cfg.seed,
            epoch=epoch,
        )
        loss, dlogits = masked_cross_entropy(logits, labels, train_idx)
        if not np.isfinite(loss):
            raise TrainingDivergedError(epoch, loss)
        model.loss_history.append(loss)
        grads = backward(model, caches, dlogits, adjacency=adjacency)

        t = epoch + 1
        corr1 = 1.0 - ADAM_BETA1**t
        corr2 = 1.0 - ADAM_BETA2**t
        # The operations, in the order of
        #   dw = dw + wd * weight
        #   m = b1 * m + (1 - b1) * grad;  v = b2 * v + (1 - b2) * grad**2
        #   param -= lr * (m / corr1) / (sqrt(v / corr2) + eps)
        # with every temporary written into the scratch arrays a and b.
        for (w_state, b_state), (dw, db) in zip(adam, grads):
            if cfg.weight_decay:
                weight, a = w_state[0], w_state[3]
                np.multiply(weight, cfg.weight_decay, out=a)
                dw += a
            for (param, m, v, a, b), grad in ((w_state, dw), (b_state, db)):
                m *= ADAM_BETA1
                np.multiply(grad, 1 - ADAM_BETA1, out=a)
                m += a
                v *= ADAM_BETA2
                np.square(grad, out=a)
                a *= 1 - ADAM_BETA2
                v += a
                np.divide(m, corr1, out=a)
                a *= cfg.learning_rate
                np.divide(v, corr2, out=b)
                np.sqrt(b, out=b)
                b += ADAM_EPS
                a /= b
                param -= a
    return model


def predict(model, features, adjacency=None):
    """Per-node (label, probability vector, logits); argmax takes the lowest index."""
    logits, _ = forward(model, features, adjacency=adjacency, train_mode=False)
    probs = softmax(logits)
    return np.argmax(logits, axis=1), probs, logits


def gradient_check(
    model,
    features,
    targets,
    epsilon=1e-5,
    adjacency=None,
    seed=0,
):
    """Max relative error between analytic gradients and central differences
    of the cross-entropy, at GRAD_CHECK_SAMPLES entries of each parameter.

    Dropout is bypassed (eval-mode forward); the loss covers every row.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    idx = np.arange(features.shape[0])

    def loss_at():
        logits, caches = forward(model, features, adjacency=adjacency, train_mode=False)
        value, dlogits = masked_cross_entropy(logits, targets, idx)
        return value, dlogits, caches

    _, dlogits, caches = loss_at()
    grads = backward(model, caches, dlogits, adjacency=adjacency)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for layer, (dw, db) in zip(model.layers, grads):
        for param, grad in ((layer.weight, dw), (layer.bias, db)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            count = min(GRAD_CHECK_SAMPLES, flat.size)
            picks = rng.choice(flat.size, size=count, replace=False)
            for j in picks:
                orig = flat[j]
                flat[j] = orig + epsilon
                plus = loss_at()[0]
                flat[j] = orig - epsilon
                minus = loss_at()[0]
                flat[j] = orig
                numeric = (plus - minus) / (2 * epsilon)
                denom = max(abs(gflat[j]), abs(numeric), 1e-10)
                worst = max(worst, abs(gflat[j] - numeric) / denom)
    return worst


def aggregate_layer(h, neighbor_lists, beta_lists, alpha, weight):
    """One abstract message-passing step.

    out_v = alpha * (h_v @ W) + (1 - alpha) * sum_u beta_vu * (h_u @ W);
    a node with no neighbors gets exactly alpha * (h_v @ W), so its row
    is untouched by every other node.
    """
    h = np.asarray(h, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    wh = h @ weight
    out = np.empty((h.shape[0], weight.shape[1]))
    for v in range(h.shape[0]):
        nbrs = neighbor_lists[v]
        if len(nbrs) == 0:
            out[v] = alpha * wh[v]
            continue
        betas = np.asarray(beta_lists[v], dtype=np.float64)
        if len(betas) != len(nbrs):
            raise ValueError(f"node {v}: beta/neighbor length mismatch")
        if abs(betas.sum() - 1.0) > 1e-9:
            raise ValueError(f"node {v}: neighbor weights sum to {betas.sum()}, not 1")
        agg = betas @ wh[np.asarray(nbrs, dtype=np.int64)]
        out[v] = alpha * wh[v] + (1.0 - alpha) * agg
    return out


def save_model(model, path, encoder_id="", config_digest=""):
    meta = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "dropout_rate": model.dropout_rate,
        "class_count": model.class_count,
        "layer_count": len(model.layers),
        "encoder_id": encoder_id,
        "config_digest": config_digest,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)}
    for i, layer in enumerate(model.layers):
        arrays[f"w{i}"] = layer.weight
        arrays[f"b{i}"] = layer.bias
    np.savez(path, **arrays)


def load_model(path):
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode("utf-8"))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        layers = [
            DenseLayer(weight=data[f"w{i}"].copy(), bias=data[f"b{i}"].copy())
            for i in range(meta["layer_count"])
        ]
    model = ClassifierModel(
        kind=meta["kind"],
        layers=layers,
        dropout_rate=meta["dropout_rate"],
        class_count=meta["class_count"],
    )
    return model, meta
