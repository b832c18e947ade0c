"""source_graph.npz: augment stores the source dataset as arrays with the
sha256 of the files it parsed, and train-eval builds its graph from them.

The graph load_artifacts builds must equal load_dataset's, texts that JSON
lines and UTF-8 handle specially included; a changed dataset file, a
missing source_graph.npz and arrays that break a TextGraph rule are refused
with the messages pinned here.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from tagaug.embedding import EmbeddingMatrix
from tagaug.fixtures import make_toy_tag
from tagaug.graph import (
    DatasetError,
    LongTailSplit,
    TextGraph,
    load_dataset,
    read_source_graph,
    write_dataset,
    write_source_graph,
)
from tagaug.pipeline import RunConfig, load_artifacts, run_augment, write_artifacts

# Texts the JSON-lines format and UTF-8 treat specially: line and paragraph
# separators written raw, NEL, an escaped newline, an astral character, an
# empty text, and "}, {" that sends the loader to the line-by-line parse.
ODD_TEXTS = ["a\u2028b\u2029", "c\x85d", "e\nf", "\U0001d518 astral", "", 'g"}, {"h']


def write_odd_dataset(directory):
    """Six nodes holding ODD_TEXTS in two classes, written by hand so the
    texts stay raw in the file (ensure_ascii=False), and three edges."""
    directory.mkdir()
    nodes = [
        json.dumps({"id": i, "text": text, "label": i % 2}, ensure_ascii=False)
        for i, text in enumerate(ODD_TEXTS)
    ]
    (directory / "nodes.jsonl").write_text("\n".join(nodes) + "\n", encoding="utf-8")
    edges = ['{"src": 4, "dst": 0}', '{"src": 1, "dst": 2}', '{"src": 0, "dst": 4}']
    (directory / "edges.jsonl").write_text("\n".join(edges) + "\n", encoding="utf-8")
    meta = {"class_names": ["\u2028one", "two\x00"]}
    (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def write_minimal_artifacts(data, out):
    """The artifacts of an augment that added no node, from data's graph;
    the RunConfig that reads them back."""
    graph = load_dataset(data)
    n = graph.node_count
    split = LongTailSplit((0,), (1,), tuple(range(2, n)), frozenset({1}), 1, 1.0)
    emb = EmbeddingMatrix(np.zeros((n, 2)), "e")
    write_artifacts(out, graph, split, 1, [], [], emb, EmbeddingMatrix(np.zeros((0, 2)), "e"))
    return RunConfig(dataset_dir=str(data), out_dir=str(out), seed=0)


def assert_same_graph(got, want):
    assert got == want  # node_count, texts, labels, class_names and edges
    assert got.labels.dtype == want.labels.dtype == np.int64
    assert got.edges.dtype == want.edges.dtype == np.int64
    np.testing.assert_array_equal(got.edges, want.edges)
    assert got._digest == want._digest


@pytest.mark.parametrize("dataset", ["toy", "odd texts"])
def test_load_artifacts_builds_the_loaded_graph(tmp_path, dataset):
    data = tmp_path / "data"
    if dataset == "toy":
        write_dataset(make_toy_tag(seed=2), data, tail_class_count=2)
    else:
        write_odd_dataset(data)
    cfg = write_minimal_artifacts(data, tmp_path / "out")
    want = load_dataset(data)
    if dataset == "odd texts":
        assert want.texts == tuple(ODD_TEXTS)
        np.testing.assert_array_equal(want.edges, [(0, 4), (1, 2)])
    assert_same_graph(load_artifacts(cfg)[0], want)


def test_a_lone_surrogate_is_refused(tmp_path):
    # json.loads reads the escape "\ud800" as a lone surrogate, which UTF-8
    # cannot encode, so neither a text nor a class name may hold one.
    data = tmp_path / "data"
    data.mkdir()
    (data / "nodes.jsonl").write_text(
        '{"id": 0, "text": "", "label": 0}\n{"id": 1, "text": "x\\ud800y", "label": 0}\n',
        encoding="utf-8",
    )
    (data / "edges.jsonl").write_text("", encoding="utf-8")
    (data / "meta.json").write_text('{"class_names": ["a"]}', encoding="utf-8")
    message = "nodes.jsonl line 2: text holds a lone surrogate '\\ud800'"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(data)
    (data / "meta.json").write_text('{"class_names": ["\\udfff"]}', encoding="utf-8")
    message = "meta.json: class_names holds a lone surrogate '\\udfff'"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_dataset(data)


def test_augment_refuses_a_lone_surrogate_before_writing_a_file(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    write_dataset(make_toy_tag(seed=2), data, tail_class_count=2)
    lines = (data / "nodes.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[5])
    record["text"] += " \ud800"
    lines[5] = json.dumps(record) + "\n"  # ensure_ascii writes the escape
    (data / "nodes.jsonl").write_text("".join(lines), encoding="utf-8")
    cfg = RunConfig(dataset_dir=str(data), out_dir=str(out), seed=0, edge_strategy="none")
    message = "nodes.jsonl line 6: text holds a lone surrogate '\\ud800'"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        run_augment(cfg)
    assert not out.exists()


def test_the_file_holds_plain_arrays_and_the_dataset_digest(tmp_path):
    data = tmp_path / "data"
    write_odd_dataset(data)
    path = tmp_path / "source_graph.npz"
    write_source_graph(load_dataset(data), path)
    with np.load(path, allow_pickle=False) as arrays:
        assert sorted(arrays.files) == [
            "class_bytes", "class_ends", "dataset_sha256", "edges", "labels",
            "text_bytes", "text_ends",
        ]
        assert arrays["labels"].tolist() == [0, 1, 0, 1, 0, 1]
        assert arrays["edges"].dtype == np.int64
        assert arrays["edges"].tolist() == [[0, 4], [1, 2]]
        blob = arrays["text_bytes"].tobytes()
        assert blob == "".join(ODD_TEXTS).encode("utf-8")
        ends = np.cumsum([len(text.encode("utf-8")) for text in ODD_TEXTS])
        assert arrays["text_ends"].tolist() == ends.tolist()
        assert arrays["dataset_sha256"].tobytes() == dataset_sha256(data)


def dataset_sha256(directory):
    """The dataset digest as documented: sha256 over each file's name, byte
    count and bytes, in the order nodes.jsonl, edges.jsonl, meta.json."""
    digest = hashlib.sha256()
    for name in ("nodes.jsonl", "edges.jsonl", "meta.json"):
        blob = (directory / name).read_bytes()
        digest.update(f"{name} {len(blob)}\n".encode("utf-8") + blob)
    return digest.digest()


def change_byte(name, old, new):
    """An edit that replaces the first byte old of file name with new."""
    def edit(data, out):
        path = data / name
        blob = path.read_bytes()
        at = blob.index(old)
        path.write_bytes(blob[:at] + new + blob[at + 1 :])
    return edit


def relabel(data, out):
    """source_graph.npz with node 0 in a class the dataset does not have;
    its digest still matches the dataset."""
    path = out / "source_graph.npz"
    with np.load(path) as arrays:
        content = dict(arrays)
    content["labels"][0] = 2
    np.savez(path, **content)


def drop_array(name, key):
    """An edit that rewrites the npz file name in out without the array key."""
    def edit(data, out):
        with np.load(out / name) as arrays:
            content = {k: arrays[k] for k in arrays.files if k != key}
        np.savez(out / name, **content)
    return edit


# edit(data, out) and the DatasetError message after the colon that names
# source_graph.npz; "{changed}" stands for the digest mismatch.
REFUSALS = {
    "nodes.jsonl byte": (change_byte("nodes.jsonl", b"a", b"A"), "{changed}"),
    "edges.jsonl byte": (change_byte("edges.jsonl", b"2", b"0"), "{changed}"),
    "meta.json byte": (change_byte("meta.json", b"a", b"b"), "{changed}"),
    "meta.json newline": (
        lambda data, out: (data / "meta.json").write_bytes(
            (data / "meta.json").read_bytes() + b"\n"
        ),
        "{changed}",
    ),
    "missing": (
        lambda data, out: (out / "source_graph.npz").unlink(),
        "no such file in {out}; run augment again",
    ),
    "label outside the classes": (
        relabel, "label out of range (2 not in [0, 2)); run augment again",
    ),
    "array missing": (drop_array("source_graph.npz", "edges"),
                      "missing array 'edges'; run augment again"),
    "truncated": (
        lambda data, out: (out / "source_graph.npz").write_bytes(
            (out / "source_graph.npz").read_bytes()[:-100]
        ),
        "File is not a zip file; run augment again",
    ),
    "empty": (
        lambda data, out: (out / "source_graph.npz").write_bytes(b""),
        "No data left in file; run augment again",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_train_eval_refuses(tmp_path, case):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    (data / "nodes.jsonl").write_text(
        '{"id": 0, "text": "a", "label": 0}\n{"id": 1, "text": "b", "label": 1}\n'
        '{"id": 2, "text": "c", "label": 0}\n',
        encoding="utf-8",
    )
    (data / "edges.jsonl").write_text('{"src": 0, "dst": 1}\n{"src": 1, "dst": 2}\n')
    (data / "meta.json").write_text('{"class_names": ["a", "b"]}', encoding="utf-8")
    cfg = write_minimal_artifacts(data, out)
    stored = dataset_sha256(data).hex()
    edit, why = REFUSALS[case]
    edit(data, out)
    changed = (
        f"the dataset in {data} differs from the one augment read "
        f"(sha256 {dataset_sha256(data).hex()[:12]}, was {stored[:12]}); run augment again"
    )
    message = "source_graph.npz: " + why.format(changed=changed, out=out)
    with pytest.raises(DatasetError) as refused:
        load_artifacts(cfg)
    assert str(refused.value) == message


@pytest.mark.parametrize("key", ["original", "synthetic", "encoder_id"])
def test_train_eval_names_a_missing_embeddings_array(tmp_path, key):
    data, out = tmp_path / "data", tmp_path / "out"
    write_odd_dataset(data)
    cfg = write_minimal_artifacts(data, out)
    drop_array("embeddings.npz", key)(data, out)
    message = f"embeddings.npz: missing array '{key}'; run augment again"
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        load_artifacts(cfg)


def test_a_corrupt_file_is_refused_or_read_whole(tmp_path):
    # Each byte of the file flipped in turn: the zip's checks either refuse
    # the file, with the message that names it, or the damage fell where it
    # changes no array (a timestamp, say) and the same graph loads.
    data, out = tmp_path / "data", tmp_path / "out"
    write_odd_dataset(data)
    cfg = write_minimal_artifacts(data, out)
    want = load_dataset(data)
    path = out / "source_graph.npz"
    blob = path.read_bytes()
    refused = 0
    for at in range(len(blob)):
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :])
        try:
            got = read_source_graph(str(path), data)
        except DatasetError as exc:
            assert str(exc).startswith("source_graph.npz: ")
            assert str(exc).endswith("; run augment again")
            refused += 1
        else:
            assert_same_graph(got, want)
    assert refused > len(blob) // 2


def test_write_artifacts_refuses_a_graph_built_in_code(tmp_path):
    graph = TextGraph(3, ("a", "b", "c"), (0, 1, 0), ("a", "b"), ((0, 1), (1, 2)))
    split = LongTailSplit((0,), (1,), (2,), frozenset({1}), 1, 1.0)
    emb = EmbeddingMatrix(np.eye(3), "e")
    with pytest.raises(ValueError, match="from load_dataset's graph only"):
        write_artifacts(tmp_path / "out", graph, split, 1, [], [], emb, emb)
    assert list((tmp_path / "out").iterdir()) == []


def test_a_corrupt_embeddings_file_is_refused_or_read_whole(tmp_path):
    # As above, for the embeddings train-eval reads: each byte flipped in
    # turn is refused with the message that names the file, or the same
    # arrays load.
    data, out = tmp_path / "data", tmp_path / "out"
    write_odd_dataset(data)
    cfg = write_minimal_artifacts(data, out)
    want = load_artifacts(cfg)
    path = out / "embeddings.npz"
    blob = path.read_bytes()
    refused = 0
    for at in range(len(blob)):
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1 :])
        try:
            got = load_artifacts(cfg)
        except DatasetError as exc:
            assert str(exc).startswith("embeddings.npz: ")
            assert str(exc).endswith("; run augment again")
            refused += 1
        else:
            assert got[2].encoder_id == want[2].encoder_id
            np.testing.assert_array_equal(got[2].vectors, want[2].vectors)
            np.testing.assert_array_equal(got[3][0], want[3][0])  # synthetic rows
    assert refused > len(blob) // 2
