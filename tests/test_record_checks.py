"""Every reason a dataset, provenance or cache record check gives, with the
file and the line it names, and which fault is named when there are more;
and that TextGraph's constructor gives the loader's reason for the same
fault."""

import json
import re

import numpy as np
import pytest

from tagaug.embedding import EmbeddingMatrix
from tagaug.generation import GenCache, SyntheticNode
from tagaug.graph import DatasetError, LongTailSplit, TextGraph, load_dataset
from tagaug.pipeline import RunConfig, load_artifacts, write_artifacts

# The readers' inputs when a case leaves them alone: three nodes in two
# classes, two edges, two provenance records and two cache entries.
NODES = [
    '{"id": 0, "text": "a", "label": 0}',
    '{"id": 1, "text": "b", "label": 1}',
    '{"id": 2, "text": "c", "label": 0}',
]
EDGES = ['{"src": 0, "dst": 1}', '{"src": 1, "dst": 2}']
PROVENANCE = ['{"label": 0, "anchor": 0}', '{"label": 1, "anchor": 2}']
CACHE = ['{"key": "k0", "text": "x"}', '{"key": "k1", "text": "y"}']


def with_line(lines, line, at):
    """lines with its line number at (1-based) replaced by line."""
    return lines[: at - 1] + [line] + lines[at:]


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


@pytest.fixture()
def read(tmp_path):
    """read(name, lines): run the reader of file name over lines."""
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    write_lines(data / "nodes.jsonl", NODES)
    write_lines(data / "edges.jsonl", EDGES)
    (data / "meta.json").write_text('{"class_names": ["a", "b"]}', encoding="utf-8")
    graph = load_dataset(data)  # write_artifacts stores its dataset digest
    split = LongTailSplit((0,), (1,), (2,), frozenset({1}), 1, 1.0)
    synthetic = [SyntheticNode("s", 0, {}), SyntheticNode("t", 1, {})]
    write_artifacts(
        out, graph, split, 1, synthetic, [[], []],
        EmbeddingMatrix(np.eye(3), "e"), EmbeddingMatrix(np.eye(3)[:2], "e"),
    )
    cfg = RunConfig(dataset_dir=str(data), out_dir=str(out), seed=0)

    def run(name, lines):
        if name == "gen_cache.jsonl":
            write_lines(tmp_path / name, lines)
            return GenCache(tmp_path / name)
        if name == "provenance.jsonl":
            write_lines(out / "augmented" / name, lines)
            return load_artifacts(cfg)
        write_lines(data / name, lines)
        return load_dataset(data)

    return run


# (file, its lines, the whole DatasetError message)
FAULTS = {
    "nodes malformed": (
        "nodes.jsonl", with_line(NODES, '{"id": 1, "text": "b"', 2),
        "nodes.jsonl line 2: malformed JSON: Expecting ',' delimiter: line 1 column 22 (char 21)",
    ),
    "nodes not an object": (
        "nodes.jsonl", with_line(NODES, '[1, "b", 1]', 2), "nodes.jsonl line 2: not a JSON object",
    ),
    "nodes no id": (
        "nodes.jsonl", with_line(NODES, '{"text": "b", "label": 1}', 2),
        "nodes.jsonl line 2: missing key 'id'",
    ),
    "nodes no text": (
        "nodes.jsonl", with_line(NODES, '{"id": 2, "label": 0}', 3),
        "nodes.jsonl line 3: missing key 'text'",
    ),
    "nodes no label": (
        "nodes.jsonl", with_line(NODES, '{"id": 0, "text": "a"}', 1),
        "nodes.jsonl line 1: missing key 'label'",
    ),
    "float id": (
        "nodes.jsonl", with_line(NODES, '{"id": 1.0, "text": "b", "label": 1}', 2),
        "nodes.jsonl line 2: node id 1.0 is not an integer",
    ),
    "bool id": (
        "nodes.jsonl", with_line(NODES, '{"id": true, "text": "b", "label": 1}', 2),
        "nodes.jsonl line 2: node id true is not an integer",
    ),
    "string id": (
        "nodes.jsonl", with_line(NODES, '{"id": "1", "text": "b", "label": 1}', 2),
        'nodes.jsonl line 2: node id "1" is not an integer',
    ),
    "duplicate id": (
        "nodes.jsonl", with_line(NODES, '{"id": 0, "text": "b", "label": 1}', 2),
        "nodes.jsonl line 2: duplicate node id 0",
    ),
    "skipped id": (
        "nodes.jsonl", with_line(NODES, '{"id": 2, "text": "b", "label": 1}', 2),
        "nodes.jsonl line 2: node ids must be 0-based contiguous ascending, got 2",
    ),
    "negative id": (
        "nodes.jsonl", with_line(NODES, '{"id": -1, "text": "a", "label": 0}', 1),
        "nodes.jsonl line 1: node ids must be 0-based contiguous ascending, got -1",
    ),
    "float label": (
        "nodes.jsonl", with_line(NODES, '{"id": 1, "text": "b", "label": 0.5}', 2),
        "nodes.jsonl line 2: label 0.5 is not an integer",
    ),
    "null label": (
        "nodes.jsonl", with_line(NODES, '{"id": 1, "text": "b", "label": null}', 2),
        "nodes.jsonl line 2: label null is not an integer",
    ),
    "label C": (
        "nodes.jsonl", with_line(NODES, '{"id": 1, "text": "b", "label": 2}', 2),
        "nodes.jsonl line 2: label out of range (2 not in [0, 2))",
    ),
    "label -1": (
        "nodes.jsonl", with_line(NODES, '{"id": 2, "text": "c", "label": -1}', 3),
        "nodes.jsonl line 3: label out of range (-1 not in [0, 2))",
    ),
    "edges malformed": (
        "edges.jsonl", with_line(EDGES, '{"src": 1, "dst":}', 2),
        "edges.jsonl line 2: malformed JSON: Expecting value: line 1 column 18 (char 17)",
    ),
    "edges not an object": (
        "edges.jsonl", with_line(EDGES, "null", 1), "edges.jsonl line 1: not a JSON object",
    ),
    "edges no src": (
        "edges.jsonl", with_line(EDGES, '{"dst": 2}', 2), "edges.jsonl line 2: missing key 'src'",
    ),
    "edges no dst": (
        "edges.jsonl", with_line(EDGES, '{"src": 0}', 1), "edges.jsonl line 1: missing key 'dst'",
    ),
    "bool src": (
        "edges.jsonl", with_line(EDGES, '{"src": true, "dst": 2}', 2),
        "edges.jsonl line 2: edge endpoints (true, 2) are not integers",
    ),
    "float dst": (
        "edges.jsonl", with_line(EDGES, '{"src": 1, "dst": 2.0}', 2),
        "edges.jsonl line 2: edge endpoints (1, 2.0) are not integers",
    ),
    "string dst": (
        "edges.jsonl", with_line(EDGES, '{"src": 0, "dst": "1"}', 1),
        'edges.jsonl line 1: edge endpoints (0, "1") are not integers',
    ),
    "endpoint N": (
        "edges.jsonl", with_line(EDGES, '{"src": 1, "dst": 3}', 2),
        "edges.jsonl line 2: edge endpoint out of range (1, 3)",
    ),
    "endpoint -1": (
        "edges.jsonl", with_line(EDGES, '{"src": -1, "dst": 0}', 1),
        "edges.jsonl line 1: edge endpoint out of range (-1, 0)",
    ),
    "self-loop": (
        "edges.jsonl", with_line(EDGES, '{"src": 2, "dst": 2}', 2),
        "edges.jsonl line 2: self-loop on node 2",
    ),
    "provenance malformed": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 0, "anchor": 1', 2),
        "provenance.jsonl line 2: malformed JSON: "
        "Expecting ',' delimiter: line 1 column 25 (char 24)",
    ),
    "provenance not an object": (
        "provenance.jsonl", with_line(PROVENANCE, '"x"', 1),
        "provenance.jsonl line 1: not a JSON object",
    ),
    "provenance no label": (
        "provenance.jsonl", with_line(PROVENANCE, '{"anchor": 2}', 2),
        "provenance.jsonl line 2: missing key 'label'",
    ),
    "provenance no anchor": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 1}', 2),
        "provenance.jsonl line 2: missing key 'anchor'",
    ),
    "provenance float label": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 0.5, "anchor": 2}', 2),
        "provenance.jsonl line 2: label 0.5 is not an integer",
    ),
    "provenance label C": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 2, "anchor": 2}', 2),
        "provenance.jsonl line 2: label out of range (2 not in [0, 2))",
    ),
    "provenance bool anchor": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 0, "anchor": true}', 1),
        "provenance.jsonl line 1: anchor true is not an integer",
    ),
    "provenance anchor N": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 1, "anchor": 3}', 2),
        "provenance.jsonl line 2: anchor out of range (3 not in [0, 3))",
    ),
    "cache malformed": (
        "gen_cache.jsonl", with_line(CACHE, "{oops", 1) + CACHE,
        "gen_cache.jsonl line 1: malformed JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "cache not an object": (
        "gen_cache.jsonl", with_line(CACHE, "[]", 2), "gen_cache.jsonl line 2: not a JSON object",
    ),
    "cache no key": (
        "gen_cache.jsonl", with_line(CACHE, '{"text": "y"}', 2),
        "gen_cache.jsonl line 2: missing key 'key'",
    ),
    "cache no text": (
        "gen_cache.jsonl", with_line(CACHE, '{"key": "k0"}', 1),
        "gen_cache.jsonl line 1: missing key 'text'",
    ),
    # json.loads reads the escape "\ud800" as a lone surrogate, which UTF-8
    # cannot encode.
    "text lone surrogate": (
        "nodes.jsonl", with_line(NODES, '{"id": 1, "text": "b\\ud800", "label": 1}', 2),
        "nodes.jsonl line 2: text holds a lone surrogate '\\ud800'",
    ),
    "cache text lone surrogate": (
        "gen_cache.jsonl", with_line(CACHE, '{"key": "k1", "text": "\\udc00y"}', 2),
        "gen_cache.jsonl line 2: text holds a lone surrogate '\\udc00'",
    ),
    # meta.json is one object, so its reasons name no line.
    "class name not a string": (
        "meta.json", ['{"class_names": [0, 1]}'],
        "meta.json: class_names must be a list of strings",
    ),
    "class name lone surrogate": (
        "meta.json", ['{"class_names": ["a", "b\\udfff"]}'],
        "meta.json: class_names holds a lone surrogate '\\udfff'",
    ),
    # One record that breaks two rules: the earlier rule names it; a
    # missing key comes before every value rule, and keys go in order.
    "missing label before float id": (
        "nodes.jsonl", with_line(NODES, '{"id": 1.5, "text": "b"}', 2),
        "nodes.jsonl line 2: missing key 'label'",
    ),
    "missing id before missing label": (
        "nodes.jsonl", with_line(NODES, '{"text": "b"}', 2),
        "nodes.jsonl line 2: missing key 'id'",
    ),
    "float id before bad label": (
        "nodes.jsonl", with_line(NODES, '{"id": 1.5, "text": "b", "label": 7}', 2),
        "nodes.jsonl line 2: node id 1.5 is not an integer",
    ),
    "endpoint range before self-loop": (
        "edges.jsonl", with_line(EDGES, '{"src": 5, "dst": 5}', 2),
        "edges.jsonl line 2: edge endpoint out of range (5, 5)",
    ),
    "provenance label before anchor": (
        "provenance.jsonl", with_line(PROVENANCE, '{"label": 9, "anchor": 1.5}', 1),
        "provenance.jsonl line 1: label out of range (9 not in [0, 2))",
    ),
    # Two bad records: the first one is named, whichever rule it breaks.
    "bad label before bad id": (
        "nodes.jsonl",
        NODES[:1] + ['{"id": 1, "text": "b", "label": 7}', '{"id": 5, "text": "c", "label": 0}'],
        "nodes.jsonl line 2: label out of range (7 not in [0, 2))",
    ),
    "self-loop before float endpoint": (
        "edges.jsonl", ['{"src": 0, "dst": 0}', '{"src": 1.5, "dst": 2}'],
        "edges.jsonl line 1: self-loop on node 0",
    ),
    "provenance bad anchor before bad label": (
        "provenance.jsonl", ['{"label": 0, "anchor": 7}', '{"label": 0.5, "anchor": 0}'],
        "provenance.jsonl line 1: anchor out of range (7 not in [0, 3))",
    ),
    "missing key after a bad value": (
        "nodes.jsonl", NODES[:1] + ['{"id": 1, "text": "b", "label": 7}', '{"id": 2}'],
        "nodes.jsonl line 2: label out of range (7 not in [0, 2))",
    ),
    # A bad value before a malformed line is named; after it, the malformed
    # line is.
    "nodes bad value, then malformed": (
        "nodes.jsonl", NODES[:1] + ['{"id": 1, "text": "b", "label": 7}', "{"],
        "nodes.jsonl line 2: label out of range (7 not in [0, 2))",
    ),
    "nodes malformed, then bad value": (
        "nodes.jsonl", NODES[:1] + ["{", '{"id": 1, "text": "b", "label": 7}'],
        "nodes.jsonl line 2: malformed JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    ),
    "edges bad value, then malformed": (
        "edges.jsonl", ['{"src": 0, "dst": 9}', '{"src": 1, "dst": 2'],
        "edges.jsonl line 1: edge endpoint out of range (0, 9)",
    ),
    "edges malformed, then bad value": (
        "edges.jsonl", ['{"src": 0, "dst": 1}]', '{"src": 0, "dst": 9}'],
        "edges.jsonl line 1: malformed JSON: Extra data: line 1 column 21 (char 20)",
    ),
    "provenance bad value, then malformed": (
        "provenance.jsonl", ['{"label": 0, "anchor": 1}', '{"label": 0, "anchor": 9}', "{"],
        "provenance.jsonl line 2: anchor out of range (9 not in [0, 3))",
    ),
    "provenance malformed, then bad value": (
        "provenance.jsonl", ['{"label": 0, "anchor": 1', '{"label": 0, "anchor": -1}'],
        "provenance.jsonl line 1: malformed JSON: "
        "Expecting ',' delimiter: line 1 column 25 (char 24)",
    ),
    # Blank lines count in the line numbers but hold no record.
    "blank lines before a bad record": (
        "nodes.jsonl", NODES[:1] + ["", "  "] + ['{"id": 2, "text": "b", "label": 1}'],
        "nodes.jsonl line 4: node ids must be 0-based contiguous ascending, got 2",
    ),
}


@pytest.mark.parametrize("name, lines, message", FAULTS.values(), ids=list(FAULTS))
def test_record_fault_names_file_line_and_reason(read, name, lines, message):
    with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
        read(name, lines)


def test_the_default_lines_are_valid(read):
    for name, lines in (("nodes.jsonl", NODES), ("gen_cache.jsonl", CACHE)):
        read(name, lines)
    graph, _split, _emb, (_rows, labels, anchors), _theory = read("provenance.jsonl", PROVENANCE)
    np.testing.assert_array_equal(graph.edges, [(0, 1), (1, 2)])
    assert labels.tolist() == [0, 1] and anchors == [0, 2]


class TestStringFields:
    @pytest.mark.parametrize("text, shown", [(5, "5"), (None, "null"), (["b"], '["b"]')])
    def test_node_text(self, read, text, shown):
        line = json.dumps({"id": 1, "text": text, "label": 1})
        message = f"nodes.jsonl line 2: text {shown} is not a string"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            read("nodes.jsonl", with_line(NODES, line, 2))

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"key": "k1", "text": 5}', "gen_cache.jsonl line 2: text 5 is not a string"),
            # a list could not key GenCache.entries
            ('{"key": ["k1"], "text": "y"}', 'gen_cache.jsonl line 2: key ["k1"] is not a string'),
        ],
    )
    def test_cache_record(self, read, line, message):
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            read("gen_cache.jsonl", with_line(CACHE, line, 2))

    def test_a_bad_label_on_the_same_record_is_named_first(self, read):
        line = '{"id": 1, "text": 5, "label": 2}'
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 2: label out of range"):
            read("nodes.jsonl", with_line(NODES, line, 2))


# (file, its lines, the TextGraph fields that hold the same fault)
SHARED_FAULTS = {
    "text": ("nodes.jsonl", with_line(NODES, '{"id": 1, "text": 5, "label": 1}', 2),
             {"texts": ("a", 5, "c")}),
    "lone surrogate": (
        "nodes.jsonl", with_line(NODES, '{"id": 2, "text": "\\ud800", "label": 0}', 3),
        {"texts": ("a", "b", "\ud800")},
    ),
    "label": ("nodes.jsonl", with_line(NODES, '{"id": 2, "text": "c", "label": -1}', 3),
              {"labels": (0, 1, -1)}),
    "endpoint": ("edges.jsonl", with_line(EDGES, '{"src": 1, "dst": 3}', 2),
                 {"edges": ((0, 1), (1, 3))}),
    "self-loop": ("edges.jsonl", with_line(EDGES, '{"src": 2, "dst": 2}', 2),
                  {"edges": ((0, 1), (2, 2))}),
    "endpoint and self-loop": ("edges.jsonl", with_line(EDGES, '{"src": 5, "dst": 5}', 1),
                               {"edges": ((5, 5), (1, 2))}),
    # numpy would cast each of these to an int; the loader refuses them.
    "float endpoint": ("edges.jsonl", with_line(EDGES, '{"src": 0, "dst": 1.5}', 2),
                       {"edges": ((0, 1), (0, 1.5))}),
    "bool endpoint": ("edges.jsonl", with_line(EDGES, '{"src": true, "dst": 2}', 2),
                      {"edges": ((0, 1), (True, 2))}),
    "str endpoint": ("edges.jsonl", with_line(EDGES, '{"src": 1, "dst": "2"}', 2),
                     {"edges": ((0, 1), (1, "2"))}),
}


@pytest.mark.parametrize("name, lines, fields", SHARED_FAULTS.values(), ids=list(SHARED_FAULTS))
def test_text_graph_gives_the_loaders_reason(read, name, lines, fields):
    with pytest.raises(DatasetError) as loaded:
        read(name, lines)
    reason = re.fullmatch(rf"{re.escape(name)} line \d+: (.*)", str(loaded.value)).group(1)
    graph = {"node_count": 3, "texts": ("a", "b", "c"), "labels": (0, 1, 0),
             "class_names": ("a", "b"), "edges": ((0, 1), (1, 2))}
    with pytest.raises(DatasetError, match=f"^{re.escape(reason)}$"):
        TextGraph(**{**graph, **fields})
