"""Confidence-guided edge assignment for synthetic nodes.

A confidence net (an MLP over embeddings, trained on the original graph)
scores every original node by its maximum softmax probability; candidate
edges score as confidence x cosine similarity, and a global top-k budget
with an optional score threshold selects the edges. Synthetic nodes that
win no edge stay isolated, which keeps them out of message passing.
"""

from dataclasses import dataclass

import numpy as np

from .embedding import _best, cosine_matrix
from .neural import predict, train_classifier
from .schema import check_fields, setting


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
    factor: int = setting(20, within="[1, inf)")  # edge budget = synthetic count x factor
    tau_conf: float = setting(0.0, within="[0, 1)")

    def __post_init__(self):
        check_fields(self)


def train_confidence(emb, labels, train_idx, cfg):
    """Train the confidence net on (embedding, label) pairs of train_idx,
    in float32."""
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


def select_topk_global(candidates, synthetic_count, cfg):
    """The k = synthetic_count x factor best of the (syn, orig, score)
    candidate rows at or above tau_conf, best first, ties to the lower
    synthetic index, then the lower original id, as assign_edges ranks
    them; and the synthetic indices left edgeless."""
    if synthetic_count < 1:
        raise ValueError("synthetic_count must be >= 1")
    candidates = np.asarray(candidates, dtype=np.float64).reshape(-1, 3)
    table = candidates[np.lexsort((candidates[:, 1], candidates[:, 0]))]
    selected = table[_best(table[:, 2], synthetic_count * cfg.factor, cfg.tau_conf)]
    connected = set(selected[:, 0].tolist())
    isolated = [i for i in range(synthetic_count) if i not in connected]
    return selected, isolated


def duplicate_edges(anchor, graph):
    """Copy the anchor's adjacency: one edge per neighbor of anchor."""
    return graph.neighbors(anchor)


def _summary(edges, k_edge=0, score_quantiles=()):
    """The edge-assignment summary of one edge list per synthetic node."""
    return {
        "k_edge": k_edge,
        "edges_added": sum(map(len, edges)),
        "isolated": edges.count([]),
        "score_quantiles": [round(float(q), 6) for q in score_quantiles],
    }


def assign_edges(rows, graph, emb, conf, cfg):
    """One list of (original id, score) edges per synthetic row, in id
    order, chosen by global top-k over kappa x cosine scores, and the
    summary, whose score_quantiles describe the chosen edges' scores (none
    when no edge is chosen). rows holds one embedding per synthetic node;
    emb holds rows for all original nodes.
    """
    if not len(rows):
        return [], _summary([])
    k = len(rows) * cfg.factor
    scores = score_edges(rows, emb, conf)
    # A score's flat position is syn x N + orig, so ties at the cut go to
    # the lower synthetic index, then the lower original id.
    flat = scores.ravel()
    chosen = np.sort(_best(flat, k, cfg.tau_conf))
    syn, orig = np.divmod(chosen, scores.shape[1])
    won = flat[chosen]
    pairs = list(zip(orig.tolist(), won.tolist()))
    ends = np.searchsorted(syn, np.arange(len(rows) + 1)).tolist()
    edges = [pairs[lo:hi] for lo, hi in zip(ends, ends[1:])]
    quantiles = np.quantile(won, (0.0, 0.25, 0.5, 0.75, 1.0)) if len(won) else ()
    return edges, _summary(edges, k, quantiles)


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
    return edges, _summary(edges)
