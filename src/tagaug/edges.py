"""Confidence-guided edge assignment for synthetic nodes.

A confidence net (an MLP over embeddings, trained on the original graph)
scores every original node by its maximum softmax probability; candidate
edges score as confidence x cosine similarity, and a global top-k budget
with an optional score threshold selects the edges. Synthetic nodes that
win no edge stay isolated, which keeps them out of message passing.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import cosine_matrix
from .neural import predict, train_classifier

# Scores _topk_cut scans at a time when k is smaller.
_CUT_BLOCK = 1 << 16


@dataclass
class ConfidenceNet:
    """kappa(z) = max softmax probability of an embedding-space classifier,
    so scores live in [1/C, 1]. kappa computes in the net's dtype, the
    rows cast to it: float32, as train_confidence trains it."""

    model: object

    def kappa(self, rows):
        _, probs, _ = predict(self.model, np.atleast_2d(rows))
        return probs.max(axis=1)


@dataclass
class EdgeAssignConfig:
    factor: int = 20  # edge budget = synthetic count x factor
    tau_conf: float = 0.0

    def __post_init__(self):
        if self.factor < 1:
            raise ValueError("factor must be >= 1")
        if not 0 <= self.tau_conf < 1:
            raise ValueError("tau_conf must lie in [0, 1)")


def train_confidence(emb, labels, train_idx, cfg):
    """Train the confidence net on (embedding, label) pairs of train_idx,
    in float32."""
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.asarray(emb.vectors, dtype=np.float32)
    model = train_classifier(rows, labels, train_idx, cfg, kind="mlp", adjacency=None)
    return ConfidenceNet(model=model)


def score_edges(synthetic_rows, emb, conf):
    """The (synthetic, original) matrix of kappa(z_u) * cos(z_vhat, z_u)."""
    synthetic_rows = np.atleast_2d(np.asarray(synthetic_rows, dtype=np.float64))
    if synthetic_rows.shape[1] != emb.dim:
        raise ValueError(
            f"dimension mismatch: synthetic {synthetic_rows.shape[1]} vs "
            f"original {emb.dim}"
        )
    kappa = conf.kappa(emb.vectors)
    sims = cosine_matrix(synthetic_rows, emb.vectors)
    sims *= kappa[None, :]
    return sims


def _topk_cut(scores, k, tau):
    """The lowest score a top-k candidate can have: the k-th best of the
    1-D scores at or above tau (NaN never is), or tau when k or fewer are.

    Scores are scanned max(k, _CUT_BLOCK) at a time, keeping the k best
    seen so far and, once there are k, only scores at or above the k-th of
    them, so no copy of all the scores is made. A block of at least k keeps
    the partitions' total work linear in the scores.
    """
    step = max(k, _CUT_BLOCK)
    best, cut = scores[:0], tau
    for lo in range(0, len(scores), step):
        block = scores[lo:lo + step]
        best = np.concatenate([best, block[block >= cut]])
        if len(best) > k:
            best = np.partition(best, len(best) - k)[len(best) - k:]
            cut = best[0]
    return cut


def _order_values(a, positions):
    """{position: value} for the given positions in sorted order of 1-D a.
    Each partition takes one kth, within the segment the kths before it
    left, and reorders a in place."""
    found = {}

    def select(lo, hi, ks):
        if ks:
            mid = ks[len(ks) // 2]
            a[lo:hi].partition(mid - lo)
            found[mid] = a[mid]
            select(lo, mid, [k for k in ks if k < mid])
            select(mid + 1, hi, [k for k in ks if k > mid])

    select(0, len(a), sorted(set(positions)))
    return found


def _quantiles(values, qs):
    """np.quantile(values, qs) (method "linear"), bit for bit, with values
    reordered in place: numpy's partition at several kths at once is the
    slow part of np.quantile, so each kth is taken alone. The indexes,
    weights and lerp are numpy's own, and a NaN makes every quantile NaN.
    Where -0.0 and 0.0 tie at a kth, or NaNs of different payloads, the two
    partitions may pick either, so only such a zero's sign or such a NaN's
    payload may differ."""
    flat = values.reshape(-1)
    n = flat.size
    virtual = (n - 1) * np.asarray(qs, dtype=np.float64)
    prev = np.floor(virtual)
    nxt = prev + 1
    last = virtual >= n - 1
    prev[last] = nxt[last] = -1
    gamma = virtual - prev
    prev, nxt = prev.astype(np.intp) % n, nxt.astype(np.intp) % n
    found = _order_values(flat, [*prev, *nxt, n - 1])
    a = np.array([found[i] for i in prev])
    b = np.array([found[i] for i in nxt])
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    if np.isnan(found[n - 1]):
        out[:] = found[n - 1]
    return out


def select_topk_global(candidates, synthetic_count, cfg):
    """Pick the k = synthetic_count x factor best-scoring candidates.

    candidates holds (syn, orig, score) rows. Candidates under tau_conf
    are dropped first; ties break toward (lower synthetic idx, lower
    original id). Only the candidates at or above the k-th best score
    (ties included) are sorted. Returns the selected rows and the
    synthetic indices left edgeless.
    """
    if synthetic_count < 1:
        raise ValueError("synthetic_count must be >= 1")
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    k = synthetic_count * cfg.factor
    top = candidates[candidates[:, 2] >= _topk_cut(candidates[:, 2], k, cfg.tau_conf)]
    order = np.lexsort((top[:, 1], top[:, 0], -top[:, 2]))
    selected = top[order[:k]]
    connected = {int(s) for s in selected[:, 0]}
    isolated = [i for i in range(synthetic_count) if i not in connected]
    return selected, isolated


def duplicate_edges(anchor, graph):
    """Copy the anchor's adjacency: one edge per neighbor of anchor."""
    return graph.neighbors(anchor)


def assign_edges(rows, graph, emb, conf, cfg):
    """One sorted list of (original id, score) edges per synthetic row,
    chosen by global top-k over kappa x cosine scores, and the summary.

    rows holds one embedding per synthetic node; emb holds rows for all
    original nodes.
    """
    if not len(rows):
        return [], {"k_edge": 0, "edges_added": 0, "isolated": 0, "score_quantiles": []}
    k = len(rows) * cfg.factor
    scores = score_edges(rows, emb, conf)
    # Only the candidates at or above the k-th best score can win, so the
    # table handed to select_topk_global holds those alone.
    flat = scores.ravel()
    pos = np.flatnonzero(flat >= _topk_cut(flat, k, cfg.tau_conf))
    candidates = np.column_stack([*np.divmod(pos, scores.shape[1]), flat[pos]])
    selected, isolated = select_topk_global(candidates, len(rows), cfg)

    edges = [[] for _ in range(len(rows))]
    for syn, orig, score in selected:
        edges[int(syn)].append((int(orig), float(score)))

    # scores is dead once the candidates are taken, so it is reordered.
    quantiles = (
        [round(float(q), 6) for q in _quantiles(scores, (0.0, 0.25, 0.5, 0.75, 1.0))]
        if scores.size
        else []
    )
    summary = {
        "k_edge": k,
        "edges_added": int(len(selected)),
        "isolated": len(isolated),
        "score_quantiles": quantiles,
    }
    return [sorted(node_edges) for node_edges in edges], summary


def wire_nodes(rows, anchors, graph, strategy, emb, conf, cfg):
    """Wire synthetic nodes, given as their embedding rows and anchor ids,
    into the graph by one of the edge strategies.

    confidence: global top-k over kappa x cosine scores (assign_edges);
    duplicate: copy the anchor's edges, each scored 1.0; none: leave every
    node isolated. Returns one sorted list of (original id, score) edges
    per node, empty for an isolated one, and the edge-assignment summary.
    """
    if strategy == "confidence":
        return assign_edges(rows, graph, emb, conf, cfg)
    if strategy == "duplicate":
        edges = [[(t, 1.0) for t in duplicate_edges(anchor, graph)] for anchor in anchors]
    elif strategy == "none":
        edges = [[] for _ in anchors]
    else:
        raise ValueError(f"unknown edge strategy: {strategy!r}")
    summary = {
        "k_edge": 0,
        "edges_added": sum(map(len, edges)),
        "isolated": edges.count([]),
        "score_quantiles": [],
    }
    return edges, summary
