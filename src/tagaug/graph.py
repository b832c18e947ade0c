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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernels import csr_matmul


class DatasetError(ValueError):
    """Raised when a dataset directory fails validation."""


@dataclass(frozen=True)
class TextGraph:
    """Undirected simple graph whose nodes carry raw documents.

    Edges are stored canonically as (u, v) with u < v, deduplicated,
    no self-loops.
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
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise DatasetError(f"self-loop on node {u}")
            if not (0 <= u < v < self.node_count):
                raise DatasetError(f"edge ({u}, {v}) malformed or out of range")
            if (u, v) in seen:
                raise DatasetError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def num_classes(self):
        return len(self.class_names)

    def neighbors(self, node):
        """Sorted neighbour ids of node, from the per-graph adjacency index."""
        if not 0 <= node < self.node_count:
            raise IndexError(f"node {node} out of range [0, {self.node_count})")
        return list(self._adjacency[node])

    @cached_property
    def _adjacency(self):
        # Built on first use; a frozen graph's edges never change, and every
        # derived graph (merge_augmented) is a new object with its own index.
        lists = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            lists[u].append(v)
            lists[v].append(u)
        return [sorted(l) for l in lists]


def _canonical_edges(pairs):
    out = set()
    for u, v in pairs:
        if u == v:
            continue
        out.add((u, v) if u < v else (v, u))
    return tuple(sorted(out))


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

    def train_count(self, labels, cls):
        return sum(1 for i in self.train_idx if labels[i] == cls)


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
        n = self.shape[0]
        out = np.zeros(self.shape)
        for row in range(n):
            for j in range(self.indptr[row], self.indptr[row + 1]):
                out[row, self.indices[j]] = self.data[j]
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
        edges=_canonical_edges(pairs),
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
    freq = [0] * graph.num_classes
    for lab in graph.labels:
        freq[lab] += 1
    return freq


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
    shuffled into val/test by val_fraction. Deterministic per seed.
    """
    if not 0 < imbalance_ratio <= 1:
        raise ValueError("imbalance_ratio must lie in (0, 1]")
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
    deg = np.ones(n)  # self loop
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    inv_sqrt = 1.0 / np.sqrt(deg)

    rows, cols, vals = [], [], []
    for nid in range(n):
        rows.append(nid)
        cols.append(nid)
        vals.append(inv_sqrt[nid] * inv_sqrt[nid])
    for u, v in graph.edges:
        w = inv_sqrt[u] * inv_sqrt[v]
        rows.extend((u, v))
        cols.extend((v, u))
        vals.extend((w, w))

    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    indptr = np.cumsum(indptr)
    return NormalizedAdjacency(indptr=indptr, indices=cols, data=vals, shape=(n, n))


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
        edges=_canonical_edges(new_edges),
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
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "class_count": self.class_count,
            "tail_class_count": self.tail_class_count,
            "train_count": self.train_count,
            "val_count": self.val_count,
            "test_count": self.test_count,
            "mean_text_length": round(self.mean_text_length, 4),
        }


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
