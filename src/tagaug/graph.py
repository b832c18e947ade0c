"""Text-attributed graph data model, dataset IO, and the long-tail split.

Dataset directory format (UTF-8, LF newlines):
  nodes.jsonl  one object per line: {"id": int, "text": str, "label": int},
               ids 0-based contiguous ascending
  edges.jsonl  one object per line: {"src": int, "dst": int}
  meta.json    {"class_names": [...], "tail_class_count": int}

Each JSON-lines file (these two, provenance.jsonl and gen_cache.jsonl) is
parsed once and checked once by _jsonl_records: each record rule is one
function over the parsed columns, and the first bad record's line is named.
TextGraph's constructor runs the same text, label and edge rules, so a graph
built in code is refused with the reason the loader gives for the same node
or edge.

source_graph.npz, which augment writes and train-eval reads in place of the
dataset, holds a loaded graph as plain arrays with the sha256 of the dataset
bytes it was parsed from (write_source_graph, read_source_graph).
"""

import hashlib
import json
import math
import operator
import os
import re
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .kernels import csr_matmul, csr_plan
from .schema import check


# The files of a dataset directory, in the order they are checked and hashed.
_DATASET_FILES = ("nodes.jsonl", "edges.jsonl", "meta.json")


class DatasetError(ValueError):
    """Raised when a dataset directory or an artifact file fails validation."""


@dataclass(frozen=True, eq=False)
class TextGraph:
    """Undirected simple graph whose nodes carry raw documents.

    labels (one per node) and edges ((u, v) pairs in any order and
    orientation) are tuples or lists of Python ints (not bools) or integer
    numpy arrays, each stored as a read-only int64 array: edges (E, 2),
    sorted and unique, each with u < v. A text or label that load_dataset
    would refuse, an endpoint that is not an integer or lies outside
    [0, node_count), or a self-loop raises DatasetError with the loader's
    reason for the first one, as does a class count other than 1 + the
    largest label. A graph load_dataset or read_source_graph returns also
    keeps, as _digest, the sha256 of the dataset files it came from, and
    load_dataset's also keeps meta.json's object as _meta.
    """

    node_count: int
    texts: tuple
    labels: np.ndarray
    class_names: tuple
    edges: np.ndarray

    def __post_init__(self):
        n, c = self.node_count, len(self.class_names)
        if len(self.texts) != n or len(self.labels) != n:
            raise DatasetError("texts/labels length must equal node_count")
        labels, pairs = _int64(self.labels, (-1,)), _int64(self.edges, (-1, 2))
        # The loader's rules, which read the labels only when one is bad;
        # at one node the label rule names the fault first.
        bad_label = labels is None or n and (labels.min() < 0 or labels.max() >= c)
        columns = {"label": _listed(self.labels) if bad_label else [], "text": self.texts}
        found = [rule(columns) for rule in (_ints_below("label", c), _strings("text"))]
        fault = min(filter(None, found), key=operator.itemgetter(0), default=None)
        if fault:
            raise DatasetError(fault[1])
        if n and c != 1 + labels.max():
            raise DatasetError(f"class_names has {c} entries but max label is {labels.max()}")
        if (pairs is None or (pairs < 0).any() or (pairs >= n).any()
                or (pairs[:, 0] == pairs[:, 1]).any()):
            # The loader's rule names the first bad edge.
            src, dst = zip(*_listed(self.edges))
            raise DatasetError(_edges_within(n)({"src": list(src), "dst": list(dst)})[1])
        # One integer code per undirected pair, sorted, repeats dropped.
        low, high = pairs[:, 0], pairs[:, 1]
        codes = np.sort(np.minimum(low, high) * n + np.maximum(low, high))
        first = np.ones(len(codes), dtype=bool)
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        pairs = np.column_stack((codes[first] // n, codes[first] % n))
        for name, column in (("labels", labels), ("edges", pairs)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other):
        if not isinstance(other, TextGraph):
            return NotImplemented
        return (
            (self.node_count, self.texts, self.class_names)
            == (other.node_count, other.texts, other.class_names)
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.edges, other.edges)
        )

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
        return _symmetric_csr(self.edges, self.node_count)


def _symmetric_csr(pairs, n, loops=False):
    """CSR (indptr, indices) of the undirected graph on n nodes whose
    canonical pairs (sorted, unique, u < v) are pairs, built by counting.

    Row r holds its lower neighbours, then r itself when loops, then its
    upper neighbours, so each row is sorted. The lower neighbours come from
    a stable argsort of the pairs' second column; the upper ones are the
    pairs' second column, already in row order.
    """
    low, high = pairs[:, 0], pairs[:, 1]
    below = np.bincount(high, minlength=n)  # neighbours below each row
    above = np.bincount(low, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above + loops, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    rank = np.arange(len(pairs))
    # Sorted by high, the pairs group each row's lower neighbours in order;
    # an entry goes to its row's start plus its rank within the group.
    by_high = np.argsort(high, kind="stable")
    rows = high[by_high]
    indices[indptr[rows] + rank - (np.cumsum(below) - below)[rows]] = low[by_high]
    if loops:
        indices[indptr[:-1] + below] = np.arange(n)
    # As they are, the pairs group each row's upper neighbours in order;
    # they go after the row's lower neighbours and loop.
    indices[indptr[low] + below[low] + loops + rank - (np.cumsum(above) - above)[low]] = high
    return indptr, indices


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

    @cached_property
    def plan(self):
        return csr_plan(self.indptr, self.indices, self.data, self.shape[1])

    def matmul(self, dense):
        return csr_matmul(self.indptr, self.indices, self.data, dense, plan=self.plan)

    def todense(self):
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return out


# Only a line holding "}", a comma and "{" in a row can hold two objects.
_TWO_OBJECTS = re.compile(r"\}[ \t\r]*,[ \t\r]*\{")
# A line holding nothing but whitespace, between two newlines.
_BLANK_LINE = re.compile(r"\n\s*\n")


def _all_int(values):
    """True when every value is an int; bool, float and numpy ints are not."""
    return set(map(type, values)) <= {int}


def _int64(values, shape):
    """A tuple, list or numpy array of ints as an int64 array of shape (a
    uint64 past int64 wraps negative); None when an array's dtype is not an
    integer one, or a tuple or list holds other than Python ints in int64."""
    if isinstance(values, np.ndarray):
        ints = values.dtype.kind in "iu" or not values.size
    else:
        ints = _all_int(chain.from_iterable(values) if len(shape) > 1 else values)
    try:
        return np.array(values, dtype=np.int64).reshape(shape) if ints else None
    except OverflowError:
        return None


def _listed(values):
    """values as the loader's rules read them: an array as Python values."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _parse_jsonl(text):
    """The JSON object on each non-blank line of text, from one json.loads
    over all of them; None when that parse fails or a line may hold other
    than exactly one object.

    Lines split on "\n" only: ensure_ascii=False writes U+2028 and U+0085
    raw, and str.splitlines breaks on them. A blank line (all whitespace,
    as str.strip sees it) is dropped wherever it is, as the line-by-line
    parse drops it. The joined parse gives each line's own object when it
    yields one dict per line and no line holds "}", a comma and "{" in a
    row: only such a line can hold two objects, and only two objects on
    one line can make up the count for one object spread over two lines.
    """
    if _TWO_OBJECTS.search(text):
        return None
    body = text.strip(" \t\r\n")
    if _BLANK_LINE.search(f"\n{body}\n"):
        body = "\n".join(filter(str.strip, body.split("\n")))
    try:
        records = json.loads("[" + body.replace("\n", ",") + "]")
    except json.JSONDecodeError:
        return None
    lines = body.count("\n") + 1 if body else 0
    if len(records) != lines or not set(map(type, records)) <= {dict}:
        return None
    return records


def _first_fault(records, keys, rules):
    """The first bad record's (index, reason), or None, and the columns at
    keys (a dict of lists) of the records before it. A record is bad when
    it is a JSONDecodeError, not an object, lacks a key, or breaks a rule.

    A rule maps the columns to the (index, reason) of the first record it
    rejects, or None. It sees only the records before each fault found so
    far, so at one record the earlier rule names the fault.
    """
    fault = None
    try:
        columns = {key: [rec[key] for rec in records] for key in keys}
    except (KeyError, TypeError):
        for i, rec in enumerate(records):
            missing = [key for key in keys if type(rec) is not dict or key not in rec]
            if missing:
                break
        if isinstance(rec, json.JSONDecodeError):
            fault = i, f"malformed JSON: {rec}"
        else:
            fault = i, f"missing key {missing[0]!r}" if type(rec) is dict else "not a JSON object"
        columns = {key: [rec[key] for rec in records[:i]] for key in keys}
    for rule in rules:
        found = rule(columns)
        if found is not None:
            fault = found
            columns = {key: column[: found[0]] for key, column in columns.items()}
    return fault, columns


def _jsonl_records(text, name, keys, rules):
    """The JSON objects on text's non-blank lines and their columns at keys,
    when every record holds keys and passes rules.

    One json.loads parses all lines at once. Only when that parse fails or
    cannot be trusted (_parse_jsonl) are the lines parsed one by one, up to
    the first malformed one, whose JSONDecodeError ends the records. One
    check (_first_fault) runs over the records; the first bad one raises
    DatasetError naming the file and the line.
    """
    records = _parse_jsonl(text)
    if records is None:
        records = []
        for line in filter(str.strip, text.split("\n")):
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                records.append(exc)
                break
    fault, columns = _first_fault(records, keys, rules)
    if fault is None:
        return records, columns
    index, why = fault
    lineno = [n for n, line in enumerate(text.split("\n"), start=1) if line.strip()][index]
    raise DatasetError(f"{name} line {lineno}: {why}")


def _decode(blob, name):
    """blob as UTF-8 text; a byte that is not UTF-8 raises DatasetError
    naming the file name and the line."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise DatasetError(f"{name} line {line}: not UTF-8 ({exc.reason})") from None


def _jsonl_blob(blob, name, keys, rules):
    """_jsonl_records of the bytes of file name, its line ends read as text
    mode reads them."""
    text = _decode(blob, name)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _jsonl_records(text, name, keys, rules)


def _ints_below(key, bound):
    """Rule: each record's key holds an int in [0, bound)."""
    def rule(columns):
        values = columns[key]
        if _all_int(values) and (not values or min(values) >= 0 and max(values) < bound):
            return None
        for i, value in enumerate(values):
            if type(value) is not int:
                return i, f"{key} {json.dumps(value, default=repr)} is not an integer"
            if not 0 <= value < bound:
                return i, f"{key} out of range ({value} not in [0, {bound}))"
    return rule


def _node_ids(columns):
    """Rule: the node ids are 0, 1, 2, ... in file order."""
    ids = columns["id"]
    if _all_int(ids) and ids == list(range(len(ids))):
        return None
    for i, nid in enumerate(ids):
        if type(nid) is not int:
            return i, f"node id {json.dumps(nid, default=repr)} is not an integer"
        if 0 <= nid < i:
            return i, f"duplicate node id {nid}"
        if nid != i:
            return i, f"node ids must be 0-based contiguous ascending, got {nid}"


def _lone_surrogate(text):
    """The first character of text that UTF-8 cannot encode, a lone
    surrogate (json.loads returns one for the escape "\\ud800"), or None."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return text[exc.start]


def _strings(key):
    """Rule: each record's key holds a string that UTF-8 can encode. The
    whole column is encoded at once; only a failure scans it record by
    record."""
    def rule(columns):
        values = columns[key]
        if set(map(type, values)) <= {str} and _lone_surrogate("".join(values)) is None:
            return None
        for i, value in enumerate(values):
            if type(value) is not str:
                return i, f"{key} {json.dumps(value, default=repr)} is not a string"
            if (char := _lone_surrogate(value)) is not None:
                return i, f"{key} holds a lone surrogate {char!r}"
    return rule


def _edges_within(n):
    """Rule: each edge joins two distinct nodes, ints in [0, n)."""
    def rule(columns):
        src, dst = columns["src"], columns["dst"]
        ends = src + dst
        if (_all_int(ends) and (not ends or min(ends) >= 0 and max(ends) < n)
                and not any(map(operator.eq, src, dst))):
            return None
        for i, (u, v) in enumerate(zip(src, dst)):
            if type(u) is not int or type(v) is not int:
                ends = ", ".join(json.dumps(end, default=repr) for end in (u, v))
                return i, f"edge endpoints ({ends}) are not integers"
            if not (0 <= u < n and 0 <= v < n):
                return i, f"edge endpoint out of range ({u}, {v})"
            if u == v:
                return i, f"self-loop on node {u}"
    return rule


def _meta_blob(blob):
    """The bytes of meta.json as an object; DatasetError unless its
    class_names is a list of strings and its tail_class_count, if any, a
    non-negative int."""
    try:
        meta = json.loads(_decode(blob, "meta.json"))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"meta.json: malformed JSON: {exc}") from None
    if type(meta) is not dict or type(meta.get("class_names")) is not list:
        raise DatasetError("meta.json: class_names must be a list")
    if not set(map(type, meta["class_names"])) <= {str}:
        raise DatasetError("meta.json: class_names must be a list of strings")
    fault = _strings("class_names")(meta)
    if fault:
        raise DatasetError(f"meta.json: {fault[1]}")
    if type(meta.get("tail_class_count", 0)) is not int:
        raise DatasetError("meta.json: tail_class_count must be an integer")
    if meta.get("tail_class_count", 0) < 0:
        raise DatasetError("meta.json: tail_class_count must not be negative")
    return meta


def _dataset_files(directory_path):
    """The bytes of a dataset directory's three files, each read once, and
    the sha256 of each file's name, byte count and bytes in turn."""
    directory_path = os.fspath(directory_path)
    blobs, digest = {}, hashlib.sha256()
    for name in _DATASET_FILES:
        path = os.path.join(directory_path, name)
        if not os.path.exists(path):
            raise DatasetError(f"missing file: {name} in {directory_path}")
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
        digest.update(f"{name} {len(blobs[name])}\n".encode("utf-8"))
        digest.update(blobs[name])
    return blobs, digest.digest()


def load_dataset(directory_path):
    """Load and validate a dataset directory into a TextGraph. An invalid
    line raises DatasetError naming its file and line number. The graph
    keeps the sha256 of the bytes it was parsed from (_dataset_files) as
    _digest, for write_source_graph, and meta.json's object, parsed from
    the same bytes, as _meta."""
    blobs, digest = _dataset_files(directory_path)
    meta = _meta_blob(blobs["meta.json"])
    class_names = tuple(meta["class_names"])
    nodes = _jsonl_blob(
        blobs["nodes.jsonl"], "nodes.jsonl", ("id", "text", "label"),
        (_node_ids, _ints_below("label", len(class_names)), _strings("text")),
    )[1]
    n = len(nodes["id"])
    edges = _jsonl_blob(
        blobs["edges.jsonl"], "edges.jsonl", ("src", "dst"), (_edges_within(n),)
    )[1]
    graph = TextGraph(
        node_count=n,
        texts=tuple(nodes["text"]),
        labels=nodes["label"],
        class_names=class_names,
        edges=np.array([edges["src"], edges["dst"]], dtype=np.int64).T,
    )
    object.__setattr__(graph, "_digest", digest)
    object.__setattr__(graph, "_meta", meta)
    return graph


@contextmanager
def _open_atomic(path, mode="w"):
    """Open a temp file beside path for writing. A clean exit moves it over
    path (os.replace), an error deletes it, so path holds either its old
    content or the complete new one, never a partial write, even on power
    loss: the file is synced before the move, on POSIX its directory after."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if os.name == "posix":
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


_encode_text = json.JSONEncoder(ensure_ascii=False).encode
_encode_record = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_dataset(graph, directory_path, tail_class_count=None, provenance=None):
    """Write a TextGraph in the dataset directory format.

    When provenance records are given (one dict per synthetic node),
    they go to a provenance.jsonl sidecar. Each file is built as one
    string, with the bytes json.dumps(record, ensure_ascii=False,
    sort_keys=True) gives per line, and replaced atomically.
    """
    directory_path = os.fspath(directory_path)
    meta = {"class_names": list(graph.class_names)}
    if tail_class_count is not None:
        meta["tail_class_count"] = tail_class_count
    # The labels are int64, so no label prints as True here.
    files = {
        "nodes.jsonl": "".join(
            f'{{"id": {nid}, "label": {label}, "text": {_encode_text(text)}}}\n'
            for nid, (text, label) in enumerate(zip(graph.texts, graph.labels.tolist()))
        ),
        "edges.jsonl": '{"dst": %d, "src": %d}\n' * len(graph.edges)
        % tuple(graph.edges[:, ::-1].ravel().tolist()),
        "meta.json": json.dumps(meta, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
    }
    if provenance is not None:
        files["provenance.jsonl"] = "".join(_encode_record(rec) + "\n" for rec in provenance)
    os.makedirs(directory_path, exist_ok=True)
    for name, content in files.items():
        with _open_atomic(os.path.join(directory_path, name)) as fh:
            fh.write(content)


def _pack_strings(strings):
    """strings as one UTF-8 byte array and each one's int64 end offset in
    it."""
    encoded = [text.encode("utf-8") for text in strings]
    ends = np.cumsum([len(blob) for blob in encoded], dtype=np.int64)
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ends


def _unpack_strings(blob, ends):
    """The strings _pack_strings packed into blob and ends."""
    data, ends = blob.tobytes(), ends.tolist()
    return tuple(
        data[start:end].decode("utf-8")
        for start, end in zip([0] + ends[:-1], ends)
    )


def write_source_graph(graph, path):
    """Write the graph load_dataset returned to path as the arrays of an
    .npz: its labels, canonical edge pairs, texts and class names, and the
    sha256 of the dataset files it was parsed from. A graph built in code
    has no such digest and raises ValueError."""
    digest = getattr(graph, "_digest", None)
    if digest is None:
        raise ValueError("source_graph.npz is written from load_dataset's graph only")
    text_bytes, text_ends = _pack_strings(graph.texts)
    class_bytes, class_ends = _pack_strings(graph.class_names)
    with _open_atomic(path, "wb") as fh:
        np.savez(
            fh,
            labels=graph.labels,
            edges=graph.edges,
            text_bytes=text_bytes,
            text_ends=text_ends,
            class_bytes=class_bytes,
            class_ends=class_ends,
            dataset_sha256=np.frombuffer(digest, dtype=np.uint8),
        )


@contextmanager
def _artifact(directory, name, remedy="run augment again", missing=None):
    """The path of the artifact name in directory, for a block that reads
    it. A missing file, or a block that fails (a truncated or corrupt file,
    a missing key, a value its reader refuses), raises one DatasetError
    that names the file and ends in remedy; a missing file ends in missing
    instead, if given."""
    if not os.path.exists(os.path.join(directory, name)):
        raise DatasetError(f"{name}: no such file in {directory}; {missing or remedy}")
    try:
        yield os.path.join(directory, name)
    except (
        AttributeError, KeyError, TypeError, ValueError, EOFError, OSError, RuntimeError,
        zipfile.BadZipFile,
    ) as exc:
        # A truncated or corrupt zip raises BadZipFile, EOFError, OSError or
        # NotImplementedError (a RuntimeError), as its damage falls. A
        # KeyError's text is the bare key, or an npz file's sentence about it.
        reason = exc
        if isinstance(exc, KeyError):
            key = str(exc.args[0])
            array = key.removesuffix(" is not a file in the archive")
            reason = f"missing array {array!r}" if array != key else f"missing key {exc}"
        raise DatasetError(f"{name}: {reason}; {remedy}") from None


def read_source_graph(path, directory_path):
    """The TextGraph write_source_graph wrote to path, when the files of the
    dataset in directory_path hash to the digest stored with it. A missing,
    truncated or corrupt file, another digest, or arrays the TextGraph rules
    refuse raise DatasetError naming the file and saying to run augment
    again."""
    digest = _dataset_files(directory_path)[1]
    with _artifact(*os.path.split(path)), np.load(path, allow_pickle=False) as data:
        stored = data["dataset_sha256"].tobytes()
        if stored != digest:
            raise DatasetError(
                f"the dataset in {os.fspath(directory_path)} differs from the one augment "
                f"read (sha256 {digest.hex()[:12]}, was {stored.hex()[:12]})"
            )
        labels = data["labels"]
        graph = TextGraph(
            node_count=len(labels),
            texts=_unpack_strings(data["text_bytes"], data["text_ends"]),
            labels=labels,
            class_names=_unpack_strings(data["class_bytes"], data["class_ends"]),
            edges=data["edges"],
        )
    object.__setattr__(graph, "_digest", digest)
    return graph


def tail_classes_by_frequency(graph, tail_class_count):
    """The tail_class_count lowest-frequency classes, ties to lower index."""
    if tail_class_count < 0:
        raise ValueError(f"tail_class_count must not be negative, got {tail_class_count}")
    if tail_class_count >= graph.num_classes:
        raise DatasetError(
            f"tail_class_count {tail_class_count} must be smaller than the dataset's "
            f"{graph.num_classes} classes"
        )
    # A stable sort keeps the lower index first among equal frequencies.
    order = np.argsort(np.bincount(graph.labels, minlength=graph.num_classes), kind="stable")
    return frozenset(order[:tail_class_count].tolist())


# make_longtail_split's settings as intervals; RunConfig's split fields declare them.
SPLIT_SETTINGS = {"head_count": "[1, inf)", "imbalance_ratio": "(0, 1]", "val_fraction": "[0, 1)"}


def make_longtail_split(
    graph,
    head_count=20,
    imbalance_ratio=1.0,
    *,
    tail_class_count,
    val_fraction=0.25,
    seed=0,
):
    """Long-tail training split: head classes get head_count training nodes,
    tail classes get round(head_count * imbalance_ratio), remaining nodes are
    shuffled into val/test by val_fraction, which must leave test at least
    one node. Deterministic per seed. Settings outside SPLIT_SETTINGS
    raise ValueError; a split the dataset cannot hold raises DatasetError.
    """
    values = (head_count, imbalance_ratio, val_fraction)
    for (name, within), value, kind in zip(SPLIT_SETTINGS.items(), values, (int, float, float)):
        check(name, value, kind, within)
    tail = tail_classes_by_frequency(graph, tail_class_count)

    tail_train = max(1, int(math.floor(head_count * imbalance_ratio + 0.5)))
    per_class = {
        cls: (tail_train if cls in tail else head_count)
        for cls in range(graph.num_classes)
    }

    freq = np.bincount(graph.labels, minlength=graph.num_classes)
    for cls, want in per_class.items():
        if freq[cls] < want + 2:
            raise DatasetError(
                f"class {cls} ({graph.class_names[cls]}) has {freq[cls]} nodes, "
                f"needs {want} training + 1 val + 1 test"
            )
    rest_count = graph.node_count - sum(per_class.values())
    if int(round(val_fraction * rest_count)) >= rest_count:
        raise DatasetError(f"val_fraction {val_fraction} leaves no test node of {rest_count}")

    rng = np.random.default_rng(seed)
    train, rest = [], []
    for cls in range(graph.num_classes):
        ids = np.flatnonzero(graph.labels == cls)
        ids = ids[rng.permutation(len(ids))]
        train.append(ids[: per_class[cls]])
        rest.append(ids[per_class[cls] :])
    rest = np.sort(np.concatenate(rest))
    rest = rest[rng.permutation(len(rest))]
    n_val = int(round(val_fraction * len(rest)))
    return LongTailSplit(
        train_idx=tuple(np.sort(np.concatenate(train)).tolist()),
        val_idx=tuple(np.sort(rest[:n_val]).tolist()),
        test_idx=tuple(np.sort(rest[n_val:]).tolist()),
        tail_classes=tail,
        head_count=head_count,
        imbalance_ratio=imbalance_ratio,
    )


def normalized_adjacency(graph, dtype=np.float64):
    """D^{-1/2} (A + I) D^{-1/2} with self-loop-inclusive degrees. The
    weights are computed in float64 and stored as dtype, whose products
    (and plan) then compute in it."""
    n = graph.node_count
    indptr, cols = _symmetric_csr(graph.edges, n, loops=True)
    degree = np.diff(indptr)  # self loop included
    inv_sqrt = 1.0 / np.sqrt(degree.astype(np.float64))
    rows = np.repeat(np.arange(n, dtype=np.int64), degree)
    return NormalizedAdjacency(
        indptr=indptr,
        indices=cols,
        data=(inv_sqrt[rows] * inv_sqrt[cols]).astype(dtype, copy=False),
        shape=(n, n),
    )


def merge_augmented(graph, texts, labels, edges):
    """Append synthetic node i (id node_count + i) with texts[i], labels[i]
    and an edge to each original id of edges[i], a list of (id, score).
    labels holds ints, as a list or an integer array; one that is not an int
    is refused as the constructor refuses it."""
    n = graph.node_count
    new_ids = np.repeat(np.arange(n, n + len(edges)), [len(node_edges) for node_edges in edges])
    targets = np.array(
        [target for node_edges in edges for target, _score in node_edges], dtype=np.int64
    )
    bad = np.flatnonzero((targets < 0) | (targets >= new_ids))
    if len(bad):
        i, target = new_ids[bad[0]] - n, targets[bad[0]]
        raise ValueError(f"synthetic node {i} references unknown id {target}")
    row_labels = _int64(labels, (-1,))  # None when one is not an int
    return TextGraph(
        node_count=n + len(edges),
        texts=tuple(graph.texts) + tuple(texts),
        labels=(
            [*graph.labels.tolist(), *_listed(labels)] if row_labels is None
            else np.concatenate([graph.labels, row_labels])
        ),
        class_names=graph.class_names,
        edges=np.concatenate([graph.edges, np.column_stack((targets, new_ids))]),
    )


def graph_stats(graph, split=None):
    """The counts the stats command and augment_report.json print."""
    mean_len = float(np.mean([len(t) for t in graph.texts])) if graph.node_count else 0.0
    return {
        "node_count": graph.node_count,
        "edge_count": len(graph.edges),
        "class_count": graph.num_classes,
        "tail_class_count": len(split.tail_classes) if split else 0,
        "train_count": len(split.train_idx) if split else 0,
        "val_count": len(split.val_idx) if split else 0,
        "test_count": len(split.test_idx) if split else 0,
        "mean_text_length": round(mean_len, 4),
    }
