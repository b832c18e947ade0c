"""From-scratch differentiable kernels: dense layers, a graph-convolution
forward/backward pass, an abstract self/neighbor aggregator, softmax
cross-entropy, an Adam optimizer, and a central-difference gradient checker.

Training computes in the dtype of the features it is given: float32
features train in float32, anything else in float64. The weights are the
same seeded draws in either dtype, rounded to it, and the Adam state,
caches, gradients, dropout masks and a GCN's adjacency products are all in
it; a GCN's adjacency must store its weights in it (kernels.py computes in
the adjacency's dtype). forward and predict compute in the model's dtype,
that of its weights, and cast the input rows to it. Train-eval's GCNs, the
boundary probe and the confidence net train in float32; verify and
gradient_check stay float64, where central differences need its precision.

Either dtype is deterministic for a fixed seed on a given numpy and BLAS:
weight init uses a seeded PCG64 stream, dropout masks come from a
counter-based Philox stream keyed by (seed, epoch, layer), and the sparse
product is one BLAS product for a small, dense-enough adjacency and sums
each row in index order for a sparser one (see kernels.py).

A dropout mask reads the Philox stream's raw 64-bit words. numpy's
``Generator.random`` turns a word into the double ``(raw >> 11) * 2**-53``,
and that double is below ``keep`` exactly when the integer ``raw >> 11`` is
below ``t = ceil(keep * 2**53)`` (scaling by a power of two is exact), that
is when ``raw <= t * 2**11 - 1``. For ``0 < keep <= 1``, t lies in
1 .. 2**53, so that bound fits in 64 bits. So the mask keeps the same
entries as ``Generator(Philox(key)).random(shape) < keep`` without
shifting the words or building the doubles. A float32 mask compares the
same 64-bit words against the same bound, so it keeps exactly the entries
the float64 mask keeps, and holds float32(1 / keep) or 0.

A Philox word depends only on its counter and key, so a large mask is
filled in ranges on threads of their own, each seeking to its first word,
with the same bits on any number of threads.

Training is full-batch. A GCN runs over every row, because neighbours feed
the rows the loss reads. An MLP's rows are independent, so it trains on the
train_idx rows alone and its dropout masks have that shape; prediction
still scores every row. backward returns parameter gradients only.

forward keeps for backward only what backward reads, per layer: the input
after dropout, a bool ReLU flag ``z > 0`` (not on the last layer) and,
from layer 1 on, a bool flag where the dropout mask kept an entry. Layer
0's mask is never read: no gradient flows to the features. The float
mask holds exactly ``1 / keep`` (rounded to the dtype) or 0, so
``(g * kept) * (1 / keep)`` has the bits of ``g * mask``, signed zeros,
inf x 0 = NaN and NaN payloads included: ``g * 1.0`` is g, and a zero or
NaN keeps its sign and payload when multiplied by a positive number.
ReLU, bias and dropout run in place on arrays nothing else reads, and
backward frees each layer's cache once that layer's gradients are taken.

train_jobs runs independent trainings side by side on threads: training
writes nothing it was given, and numpy releases the interpreter lock
inside BLAS, Philox and its ufunc loops. A model trained in a job has the
bits it has when trained alone.
"""

import math
import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .kernels import (
    _SHARE,
    _blas_threads,
    _compute_dtype,
    _range_count,
    _run_ranges,
    _usable_cpus,
)
from .schema import check_fields, setting

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Entries of each weight and bias array that gradient_check perturbs.
GRAD_CHECK_SAMPLES = 6

# A dropout mask takes one thread per this many words, up to one per
# usable CPU (see kernels.py). On a 2-core host a mask took 0.86 ms on one
# thread and 0.88 ms on two at 65,536 words, and 1.84 vs 1.41 ms at
# 131,072; the toy's largest mask (52,736 words) stays on one range. Each
# range draws and compares MASK_BLOCK_WORDS words at a time, so the
# transient words stay small.
MASK_RANGE_MIN_WORDS = 1 << 16
MASK_BLOCK_WORDS = 1 << 16

# Each thread keeps one Philox bit generator and resets its state to each
# range's key and counter, with the same words: building one per range
# seeds a SeedSequence from OS entropy first, which took 12 us on a 2-core
# host against 4 us for the reset.
_PHILOX = threading.local()


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

    @property
    def dtype(self):
        """The dtype forward computes in: float32 for float32 weights, else
        float64."""
        return _compute_dtype(self.layers[0].weight)


@dataclass
class TrainConfig:
    epochs: int = setting(1000, within="[1, inf)")
    learning_rate: float = setting(0.01, within="[0, inf)")
    dropout: float = setting(0.5, within="[0, 1)")
    hidden_dims: tuple = setting((64, 64), within="[1, inf)")
    weight_decay: float = setting(0.0, within="[0, inf)")
    seed: int = setting(0, within="[0, inf)")

    def __post_init__(self):
        check_fields(self)


def confidence_train_defaults():
    """Confidence-MLP defaults: one 256-unit hidden layer, dropout 0, lr 0.001."""
    return TrainConfig(epochs=1000, learning_rate=0.001, dropout=0.0, hidden_dims=(256,))


def init_model(kind, in_dim, class_count, cfg, dtype=np.float64):
    """Fan-in-scaled uniform init, seeded; the float64 draws rounded to dtype."""
    rng = np.random.default_rng(cfg.seed)
    dims = [in_dim, *cfg.hidden_dims, class_count]
    layers = []
    for a, b in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(a)
        layers.append(
            DenseLayer(
                weight=rng.uniform(-bound, bound, size=(a, b)).astype(dtype, copy=False),
                bias=np.zeros(b, dtype=dtype),
            )
        )
    return ClassifierModel(
        kind=kind, layers=layers, dropout_rate=cfg.dropout, class_count=class_count
    )


def dropout_mask(shape, rate, seed, epoch, layer, dtype=np.float64):
    """Inverted-dropout mask from a Philox stream keyed by (seed, epoch,
    layer): 1 / (1 - rate), rounded to dtype, where an entry is kept, else 0.
    The kept entries do not depend on dtype."""
    key = np.array(
        [int(seed) & 0xFFFFFFFFFFFFFFFF, (int(epoch) << 8) | int(layer)],
        dtype=np.uint64,
    )
    keep = 1.0 - rate
    dtype = np.dtype(dtype)
    mask = np.empty(shape, dtype=dtype)
    flat = mask.reshape(-1)
    n = flat.size
    # Ranges start on a Philox block of 4 words, so each can seek to its own.
    step = 4 * max(1, -(-n // (4 * _range_count(n, MASK_RANGE_MIN_WORDS))))
    last_kept = np.uint64((math.ceil(keep * 2.0**53) << 11) - 1)  # the largest kept word
    fill = partial(_fill_mask, flat, key, last_kept, dtype.type(1.0 / keep))
    _run_ranges(fill, [(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)])
    return mask


def _fill_mask(flat, key, last_kept, scale, lo, hi):
    """Words lo .. hi of the mask, MASK_BLOCK_WORDS at a time."""
    bits = getattr(_PHILOX, "bits", None)
    if bits is None:
        bits = _PHILOX.bits = np.random.Philox(0)
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([lo // 4, 0, 0, 0], dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for start in range(lo, hi, MASK_BLOCK_WORDS):
        words = bits.random_raw(min(MASK_BLOCK_WORDS, hi - start))
        # Generator.random(shape) < keep; 1.0 / keep or 0.0, as in kept / keep
        np.multiply(words <= last_kept, scale, out=flat[start:start + len(words)])


@dataclass
class _LayerCache:
    dropped: np.ndarray  # the layer's input after dropout
    kept: np.ndarray  # bool, where the dropout mask kept an entry; None on layer 0 or no dropout
    active: np.ndarray  # bool, pre-activation > 0; None on the last layer


def forward(model, features, adjacency=None, train_mode=False, seed=0, epoch=0):
    """Logits plus per-layer caches for backward.

    Each layer computes A_hat @ (drop(h) @ W) + b (the adjacency product is
    skipped for MLPs); ReLU between layers, dropout before every weight
    multiply in train mode. Computes in the model's dtype, features cast to
    it; features is never written.
    """
    dtype = model.dtype
    if model.kind == "gcn":
        if adjacency is None:
            raise ValueError("gcn forward requires an adjacency")
        if _compute_dtype(adjacency.data) != dtype:
            raise ValueError(
                f"adjacency stores {adjacency.data.dtype} but the model computes in {dtype}"
            )
    h = np.asarray(features, dtype=dtype)
    caches = []
    last = len(model.layers) - 1
    for i, layer in enumerate(model.layers):
        if h.shape[1] != layer.weight.shape[0]:
            raise ValueError(
                f"layer {i}: input dim {h.shape[1]} != weight rows "
                f"{layer.weight.shape[0]}"
            )
        kept = None
        if train_mode and model.dropout_rate > 0:
            mask = dropout_mask(h.shape, model.dropout_rate, seed, epoch, i, dtype)
            if i:  # h is the last layer's ReLU output, which nothing else reads
                kept = mask != 0.0
                h *= mask
            else:  # backward never reads layer 0's mask: no gradient flows to the input
                h = np.multiply(h, mask, out=mask)
            del mask
        z = h @ layer.weight
        if model.kind == "gcn":
            z = adjacency.matmul(z)
        z += layer.bias
        active = z > 0.0 if i < last else None
        caches.append(_LayerCache(dropped=h, kept=kept, active=active))
        h = np.maximum(z, 0.0, out=z) if i < last else z
    return h, caches


def backward(model, caches, dlogits, adjacency=None):
    """Parameter gradients from the logit gradient (adjacency is symmetric).

    Consumes caches: each entry is set to None once its layer's gradients
    are taken, so its arrays are freed while the layers below still run.
    """
    grads = [None] * len(model.layers)
    g_out = dlogits
    for i in range(len(model.layers) - 1, -1, -1):
        cache, caches[i] = caches[i], None
        if cache.active is not None:  # g_out is this function's own array here
            g_out *= cache.active
        db = g_out.sum(axis=0)
        ga = adjacency.matmul(g_out) if model.kind == "gcn" else g_out
        g_out = None
        grads[i] = (cache.dropped.T @ ga, db)
        if i > 0:  # nothing reads the gradient of the input features
            g_out = ga @ model.layers[i].weight.T
            del ga
            if cache.kept is not None:
                # g_out * mask, bit for bit: the mask is kept / (1 - rate)
                g_out *= cache.kept
                g_out *= 1.0 / (1.0 - model.dropout_rate)
    return grads


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    return expv / expv.sum(axis=1, keepdims=True)


def masked_cross_entropy(logits, labels, idx):
    """Mean softmax cross-entropy over the rows in idx.

    Returns (loss, dlogits) with dlogits zero outside idx. A picked
    probability is floored at 1e-300, or at the dtype's smallest normal
    number where that is larger (float32), so an underflowed softmax gives
    a large finite loss, not an infinite one.
    """
    idx = np.asarray(idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    sub = logits[idx]
    probs = softmax(sub)
    y = labels[idx]
    floor = max(1e-300, float(np.finfo(probs.dtype).tiny))
    picked = np.clip(probs[np.arange(len(idx)), y], floor, None)
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
    """Full-batch Adam training of a GCN or MLP, deterministic per seed, in
    float32 for float32 features and in float64 for any others."""
    train_idx = np.asarray(train_idx, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(train_idx) == 0:
        raise ValueError("training mask is empty")
    class_count = int(labels.max()) + 1
    if len(set(labels[train_idx].tolist())) < 2:
        raise ValueError("training mask must cover at least 2 classes")

    features = np.asarray(features, dtype=_compute_dtype(features))
    if kind == "mlp":  # rows are independent: fit only the rows the loss reads
        features, labels = features[train_idx], labels[train_idx]
        train_idx = np.arange(len(train_idx))
    model = init_model(kind, features.shape[1], class_count, cfg, features.dtype)

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
        # The next forward must not run beside this epoch's caches. Dropped
        # while grads (allocated last) lives, they leave holes the next epoch
        # refills, not free memory at the top of the heap that malloc would
        # return to the system and fault back in every epoch.
        del logits, caches, dlogits

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


def train_jobs(jobs):
    """Call each zero-argument job, side by side on min(len(jobs), usable
    CPUs // BLAS threads) threads, the calling thread one of them; their
    results in job order. Inside a job, the sparse product and the dropout
    masks split over max(1, usable // threads) CPUs. Once a job raises, no
    further job starts; after the running ones end, the lowest-index failing
    job's error is raised."""
    results = [None] * len(jobs)
    usable = _usable_cpus()
    # Each job's BLAS products may take every BLAS thread. Two jobs whose
    # products share two threads on two CPUs ran 1.5x slower than the same
    # jobs one after the other.
    workers = max(1, min(len(jobs), usable // _blas_threads()))
    share = max(1, usable // workers)

    def run(index):
        own, _SHARE.cpus = getattr(_SHARE, "cpus", None), share
        try:
            results[index] = jobs[index]()
        finally:
            _SHARE.cpus = own  # the calling thread gets its own view back

    _run_ranges(run, [(index,) for index in range(len(jobs))], workers)
    return results


def predict(model, features, adjacency=None):
    """Per-node (label, probability vector, logits) in the model's dtype;
    argmax takes the lowest index."""
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
