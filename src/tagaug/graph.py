"""Text-attributed graph data model, dataset IO, and the long-tail split.

Dataset directory format (UTF-8, LF newlines):
  nodes.jsonl  one object per line: {"id": int, "text": str, "label": int},
               ids 0-based contiguous ascending
  edges.jsonl  one object per line: {"src": int, "dst": int}
  meta.json    {"class_names": [...], "tail_class_count": int}
"""

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .kernels import csr_matmul


class DatasetError(ValueError):
    """Raised when a dataset directory fails validation."""


@dataclass(frozen=True)
class TextGraph:
    """Undirected simple graph whose nodes carry raw documents.

    edges may hold (u, v) pairs in any order and orientation; a mirrored or
    repeated pair is one edge. They are stored canonically: sorted, unique,
    each with u < v. A self-loop or an endpoint outside [0, node_count)
    raises DatasetError.
    """

    node_count: int
    texts: tuple
    labels: tuple
    class_names: tuple
    edges: tuple

    def __post_init__(self):
        if len(self.texts) != self.node_count or len(self.labels) != self.node_count:
            raise DatasetError("texts/labels length must equal node_count")
        c = len(self.class_names)
        if self.node_count and c != 1 + max(self.labels):
            raise DatasetError(
                f"class_names has {c} entries but max label is {max(self.labels)}"
            )
        for lab in self.labels:
            if not 0 <= lab < c:
                raise DatasetError(f"label {lab} out of range [0, {c})")
        n = self.node_count
        pairs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        loops = pairs[pairs[:, 0] == pairs[:, 1]]
        if len(loops):
            raise DatasetError(f"self-loop on node {loops[0, 0]}")
        outside = pairs[((pairs < 0) | (pairs >= n)).any(axis=1)]
        if len(outside):
            u, v = outside[0]
            raise DatasetError(f"edge ({u}, {v}) malformed or out of range")
        # One integer code per undirected pair; np.unique sorts and dedups them.
        codes = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        canonical = tuple(zip((codes // n).tolist(), (codes % n).tolist()))
        object.__setattr__(self, "edges", canonical)

    @property
    def num_classes(self):
        return len(self.class_names)

    def neighbors(self, node):
        """Sorted neighbour ids of node, from the per-graph adjacency index."""
        if not 0 <= node < self.node_count:
            raise IndexError(f"node {node} out of range [0, {self.node_count})")
        indptr, indices = self._adjacency
        return indices[indptr[node] : indptr[node + 1]].tolist()

    @cached_property
    def _adjacency(self):
        """Symmetric CSR (indptr, indices) of the edges, each row sorted."""
        # Built on first use; a frozen graph's edges never change, and every
        # derived graph (merge_augmented) is a new object with its own index.
        pairs = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.node_count), out=indptr[1:])
        return indptr, cols[np.lexsort((cols, rows))]


@dataclass(frozen=True)
class LongTailSplit:
    """Train/val/test masks plus the tail-class set used for augmentation."""

    train_idx: tuple
    val_idx: tuple
    test_idx: tuple
    tail_classes: frozenset
    head_count: int
    imbalance_ratio: float

    def __post_init__(self):
        a, b, c = set(self.train_idx), set(self.val_idx), set(self.test_idx)
        if a & b or a & c or b & c:
            raise ValueError("train/val/test must be pairwise disjoint")


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetric-normalized adjacency with self-loops, in CSR form."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def matmul(self, dense):
        return csr_matmul(self.indptr, self.indices, self.data, dense)

    def todense(self):
        out = np.zeros(self.shape)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out


def load_dataset(directory_path):
    """Load and validate a dataset directory into a TextGraph."""
    directory_path = os.fspath(directory_path)
    for name in ("nodes.jsonl", "edges.jsonl", "meta.json"):
        if not os.path.exists(os.path.join(directory_path, name)):
            raise DatasetError(f"missing file: {name} in {directory_path}")

    with open(os.path.join(directory_path, "meta.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    class_names = tuple(meta["class_names"])
    c = len(class_names)

    texts, labels = [], []
    seen_ids = set()
    with open(os.path.join(directory_path, "nodes.jsonl"), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            nid, text, label = rec["id"], rec["text"], rec["label"]
            if nid in seen_ids:
                raise DatasetError(f"nodes.jsonl line {lineno}: duplicate node id {nid}")
            if nid != len(texts):
                raise DatasetError(
                    f"nodes.jsonl line {lineno}: node ids must be 0-based contiguous "
                    f"ascending, got {nid}"
                )
            if not 0 <= label < c:
                raise DatasetError(
                    f"nodes.jsonl line {lineno}: label out of range ({label} >= {c})"
                )
            seen_ids.add(nid)
            texts.append(text)
            labels.append(label)

    n = len(texts)
    pairs = []
    with open(os.path.join(directory_path, "edges.jsonl"), encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            u, v = rec["src"], rec["dst"]
            if not (0 <= u < n and 0 <= v < n):
                raise DatasetError(
                    f"edges.jsonl line {lineno}: edge endpoint out of range ({u}, {v})"
                )
            if u == v:
                raise DatasetError(f"edges.jsonl line {lineno}: self-loop on node {u}")
            pairs.append((u, v))

    return TextGraph(
        node_count=n,
        texts=tuple(texts),
        labels=tuple(labels),
        class_names=class_names,
        edges=pairs,
    )


@contextmanager
def _open_atomic(path, mode="w"):
    """Open a temp file beside path for writing. A clean exit moves it over
    path (os.replace), an error deletes it, so path holds either its old
    content or the complete new one, never a partial write."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dataset(graph, directory_path, tail_class_count=None, provenance=None):
    """Write a TextGraph in the dataset directory format.

    When provenance records are given (one dict per synthetic node),
    they go to a provenance.jsonl sidecar. Each file is replaced
    atomically.
    """
    directory_path = os.fspath(directory_path)
    os.makedirs(directory_path, exist_ok=True)
    with _open_atomic(os.path.join(directory_path, "nodes.jsonl")) as fh:
        for nid in range(graph.node_count):
            rec = {"id": nid, "text": graph.texts[nid], "label": graph.labels[nid]}
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")
    with _open_atomic(os.path.join(directory_path, "edges.jsonl")) as fh:
        for u, v in graph.edges:
            fh.write(json.dumps({"dst": v, "src": u}, sort_keys=True) + "\n")
    meta = {"class_names": list(graph.class_names)}
    if tail_class_count is not None:
        meta["tail_class_count"] = tail_class_count
    with _open_atomic(os.path.join(directory_path, "meta.json")) as fh:
        json.dump(meta, fh, ensure_ascii=False, sort_keys=True, indent=2)
        fh.write("\n")
    if provenance is not None:
        with _open_atomic(os.path.join(directory_path, "provenance.jsonl")) as fh:
            for rec in provenance:
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")


def class_frequencies(graph):
    labels = np.asarray(graph.labels, dtype=np.int64)
    return np.bincount(labels, minlength=graph.num_classes).tolist()


def tail_classes_by_frequency(graph, tail_class_count):
    """The tail_class_count lowest-frequency classes, ties to lower index."""
    if tail_class_count >= graph.num_classes:
        raise ValueError("tail_class_count must be smaller than the class count")
    freq = class_frequencies(graph)
    order = sorted(range(graph.num_classes), key=lambda cls: (freq[cls], cls))
    return frozenset(order[:tail_class_count])


def make_longtail_split(
    graph,
    head_count=20,
    imbalance_ratio=1.0,
    tail_class_count=None,
    val_fraction=0.25,
    seed=0,
):
    """Long-tail training split: head classes get head_count training nodes,
    tail classes get round(head_count * imbalance_ratio), remaining nodes are
    shuffled into val/test by val_fraction, which must leave test at least
    one node. Deterministic per seed.
    """
    if not 0 < imbalance_ratio <= 1:
        raise ValueError("imbalance_ratio must lie in (0, 1]")
    if not 0 <= val_fraction < 1:
        raise ValueError(f"val_fraction must lie in [0, 1), got {val_fraction}")
    if tail_class_count is None:
        raise ValueError("tail_class_count is required")
    tail = tail_classes_by_frequency(graph, tail_class_count)

    tail_train = max(1, int(math.floor(head_count * imbalance_ratio + 0.5)))
    per_class = {
        cls: (tail_train if cls in tail else head_count)
        for cls in range(graph.num_classes)
    }

    freq = class_frequencies(graph)
    for cls, want in per_class.items():
        if freq[cls] < want + 2:
            raise ValueError(
                f"class {cls} ({graph.class_names[cls]}) has {freq[cls]} nodes, "
                f"needs {want} training + 1 val + 1 test"
            )
    rest_count = graph.node_count - sum(per_class.values())
    if int(round(val_fraction * rest_count)) >= rest_count:
        raise ValueError(f"val_fraction {val_fraction} leaves no test node of {rest_count}")

    rng = np.random.default_rng(seed)
    members = [[] for _ in range(graph.num_classes)]
    for nid, lab in enumerate(graph.labels):
        members[lab].append(nid)

    train, rest = [], []
    for cls in range(graph.num_classes):
        ids = np.array(members[cls])
        perm = rng.permutation(len(ids))
        take = per_class[cls]
        train.extend(int(i) for i in ids[perm[:take]])
        rest.extend(int(i) for i in ids[perm[take:]])

    rest = np.array(sorted(rest))
    perm = rng.permutation(len(rest))
    n_val = int(round(val_fraction * len(rest)))
    val = [int(i) for i in rest[perm[:n_val]]]
    test = [int(i) for i in rest[perm[n_val:]]]

    return LongTailSplit(
        train_idx=tuple(sorted(train)),
        val_idx=tuple(sorted(val)),
        test_idx=tuple(sorted(test)),
        tail_classes=tail,
        head_count=head_count,
        imbalance_ratio=imbalance_ratio,
    )


def normalized_adjacency(graph):
    """D^{-1/2} (A + I) D^{-1/2} with self-loop-inclusive degrees."""
    n = graph.node_count
    adj_ptr, adj_idx = graph._adjacency
    degree = np.diff(adj_ptr)
    inv_sqrt = 1.0 / np.sqrt(degree + 1.0)  # self loop
    nodes = np.arange(n, dtype=np.int64)
    rows = np.concatenate([nodes, np.repeat(nodes, degree)])
    cols = np.concatenate([nodes, adj_idx])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    return NormalizedAdjacency(
        indptr=adj_ptr + np.arange(n + 1),
        indices=cols,
        data=inv_sqrt[rows] * inv_sqrt[cols],
        shape=(n, n),
    )


def merge_augmented(graph, synthetic):
    """Append synthetic nodes (ids node_count + i) and their edges."""
    n = graph.node_count
    texts = list(graph.texts)
    labels = list(graph.labels)
    new_edges = list(graph.edges)
    for i, node in enumerate(synthetic):
        new_id = n + i
        texts.append(node.text)
        labels.append(node.label)
        for target, _score in node.edges:
            if not 0 <= target < new_id:
                raise ValueError(
                    f"synthetic node {i} references unknown id {target}"
                )
            new_edges.append((target, new_id))
    return TextGraph(
        node_count=n + len(synthetic),
        texts=tuple(texts),
        labels=tuple(labels),
        class_names=graph.class_names,
        edges=new_edges,
    )


@dataclass(frozen=True)
class Stats:
    node_count: int
    edge_count: int
    class_count: int
    tail_class_count: int
    train_count: int
    val_count: int
    test_count: int
    mean_text_length: float

    def as_dict(self):
        return {**asdict(self), "mean_text_length": round(self.mean_text_length, 4)}


def graph_stats(graph, split=None):
    mean_len = (
        float(np.mean([len(t) for t in graph.texts])) if graph.node_count else 0.0
    )
    return Stats(
        node_count=graph.node_count,
        edge_count=len(graph.edges),
        class_count=graph.num_classes,
        tail_class_count=len(split.tail_classes) if split else 0,
        train_count=len(split.train_idx) if split else 0,
        val_count=len(split.val_idx) if split else 0,
        test_count=len(split.test_idx) if split else 0,
        mean_text_length=mean_len,
    )
