import hashlib
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagaug import graph as graph_module
from tagaug.fixtures import make_toy_tag
from tagaug.graph import (
    DatasetError,
    LongTailSplit,
    TextGraph,
    graph_stats,
    load_dataset,
    make_longtail_split,
    merge_augmented,
    normalized_adjacency,
    tail_classes_by_frequency,
    write_dataset,
)


def write_raw(tmp_path, nodes, edges, meta):
    (tmp_path / "nodes.jsonl").write_text(
        "".join(json.dumps(n) + "\n" for n in nodes), encoding="utf-8"
    )
    (tmp_path / "edges.jsonl").write_text(
        "".join(json.dumps(e) + "\n" for e in edges), encoding="utf-8"
    )
    (tmp_path / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
    return tmp_path


def small_nodes(labels):
    return [{"id": i, "text": f"text {i}", "label": lab} for i, lab in enumerate(labels)]


class TestLoadDataset:
    def test_mirrored_pair_deduplicated(self, tmp_path):
        write_raw(
            tmp_path,
            small_nodes([0, 1, 0]),
            [{"src": 0, "dst": 1}, {"src": 1, "dst": 0}],
            {"class_names": ["a", "b"]},
        )
        graph = load_dataset(tmp_path)
        assert graph.node_count == 3
        np.testing.assert_array_equal(graph.edges, [(0, 1)])

    def test_label_out_of_range_reports_line(self, tmp_path):
        write_raw(
            tmp_path,
            [{"id": 0, "text": "x", "label": 7}],
            [],
            {"class_names": ["a"] * 7},
        )
        with pytest.raises(DatasetError, match=r"line 1.*label out of range"):
            load_dataset(tmp_path)

    def test_non_contiguous_ids(self, tmp_path):
        write_raw(
            tmp_path,
            [{"id": 0, "text": "x", "label": 0}, {"id": 2, "text": "y", "label": 0}],
            [],
            {"class_names": ["a"]},
        )
        with pytest.raises(DatasetError, match="contiguous"):
            load_dataset(tmp_path)

    def test_duplicate_id(self, tmp_path):
        write_raw(
            tmp_path,
            [{"id": 0, "text": "x", "label": 0}, {"id": 0, "text": "y", "label": 0}],
            [],
            {"class_names": ["a"]},
        )
        with pytest.raises(DatasetError, match="duplicate node id"):
            load_dataset(tmp_path)

    def test_edge_out_of_range(self, tmp_path):
        write_raw(
            tmp_path,
            small_nodes([0, 0]),
            [{"src": 0, "dst": 5}],
            {"class_names": ["a"]},
        )
        with pytest.raises(DatasetError, match="line 1.*out of range"):
            load_dataset(tmp_path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="missing file"):
            load_dataset(tmp_path)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_write_load_round_trip(tmp_path_factory, data):
    n = data.draw(st.integers(1, 8))
    class_count = data.draw(st.integers(1, 3))
    labels = [data.draw(st.integers(0, class_count - 1)) for _ in range(n)]
    labels[0] = class_count - 1  # class_names length must be 1 + max label
    texts = [data.draw(st.text(max_size=20)) for _ in range(n)]
    pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = tuple(
        sorted(
            set(
                data.draw(st.sampled_from(pair_pool))
                for _ in range(data.draw(st.integers(0, 5)))
            )
        )
        if pair_pool
        else []
    )
    graph = TextGraph(
        node_count=n,
        texts=tuple(texts),
        labels=tuple(labels),
        class_names=tuple(f"c{i}" for i in range(class_count)),
        edges=edges,
    )
    out = tmp_path_factory.mktemp("roundtrip")
    write_dataset(graph, out, tail_class_count=1)
    assert load_dataset(out) == graph


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_text_graph_canonicalises_its_edges(tmp_path_factory, data):
    n = data.draw(st.integers(2, 10))
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=20))
    # mirrored and repeated copies, all in a drawn order
    copies = data.draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    raw = data.draw(st.permutations(pairs + [(v, u) for u, v in copies] + copies))
    graph = plain_graph(n, tuple(raw))
    want = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    np.testing.assert_array_equal(graph.edges, np.array(want, dtype=np.int64).reshape(-1, 2))
    assert graph.edges.dtype == np.int64
    out = tmp_path_factory.mktemp("canonical")
    write_dataset(graph, out)
    assert load_dataset(out) == graph

    k = data.draw(node)
    outside = data.draw(st.one_of(st.integers(-5, -1), st.integers(n, n + 5)))
    bad, named = data.draw(
        st.sampled_from([((k, k), f"self-loop on node {k}"), ((k, outside), str(outside)),
                         ((outside, k), str(outside))])
    )
    at = data.draw(st.integers(0, len(raw)))
    with pytest.raises(DatasetError, match=re.escape(named)):
        plain_graph(n, tuple(raw[:at]) + (bad,) + tuple(raw[at:]))


def test_toy_fixture_files_are_pinned(tmp_path):
    # make_toy_tag(seed=2) is the acceptance run's input; these digests fix
    # every byte of it, so a change to the generator cannot pass unseen.
    write_dataset(make_toy_tag(seed=2), tmp_path, tail_class_count=2)
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.iterdir())
    }
    assert digests == {
        "edges.jsonl": "1eabf6dc22eff15ab57e905f4f24b868615fad68d4a85fe3587981a90c242b0d",
        "meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
        "nodes.jsonl": "88c1a900d883b0060de1e40b1bb9778f3a8eeab79402f07e6c524c1e9768e548",
    }


def per_edge_lines(edges):
    """Oracle: edges.jsonl built with one f-string per (u, v) edge."""
    return "".join(f'{{"dst": {v}, "src": {u}}}\n' for u, v in edges).encode()


@pytest.mark.parametrize("edges", [(), ((2, 0),)], ids=["no edge", "one edge"])
def test_edges_file_matches_per_edge_lines_and_loads_back(tmp_path, edges):
    graph = TextGraph(node_count=3, texts=("a", "b", "c"), labels=(0, 1, 0),
                      class_names=("x", "y"), edges=edges)
    write_dataset(graph, tmp_path)
    assert (tmp_path / "edges.jsonl").read_bytes() == per_edge_lines(graph.edges.tolist())
    back = load_dataset(tmp_path)
    assert back.edges.shape == (len(edges), 2)
    np.testing.assert_array_equal(back.edges, graph.edges)
    assert (back.texts, back.labels.tolist()) == (graph.texts, graph.labels.tolist())


def test_edges_file_writes_node_ids_above_2_31(tmp_path):
    # No TextGraph of 2**31 nodes fits in memory, so a stand-in carries the
    # four fields write_dataset reads.
    edges = np.array([[0, 2**31], [2**31 + 1, 2**62]], dtype=np.int64)
    graph = SimpleNamespace(class_names=("x",), texts=(), labels=np.zeros(0, np.int64),
                            edges=edges)
    write_dataset(graph, tmp_path)
    written = (tmp_path / "edges.jsonl").read_bytes()
    assert written == per_edge_lines(edges.tolist())
    assert written.splitlines()[0] == b'{"dst": 2147483648, "src": 0}'


class TestLongtailSplit:
    def test_tail_counts_follow_ratio(self, toy_graph):
        for ratio, expect in ((0.5, 10), (0.1, 2), (1.0, 20)):
            split = make_longtail_split(
                toy_graph, head_count=20, imbalance_ratio=ratio, tail_class_count=2, seed=0
            )
            for cls in range(toy_graph.num_classes):
                count = sum(1 for i in split.train_idx if toy_graph.labels[i] == cls)
                assert count == (expect if cls in split.tail_classes else 20)

    def test_tail_classes_are_lowest_frequency(self, toy_graph):
        split = make_longtail_split(
            toy_graph, head_count=20, imbalance_ratio=0.5, tail_class_count=2, seed=0
        )
        assert split.tail_classes == frozenset({2, 3})

    def test_deterministic(self, toy_graph):
        a = make_longtail_split(toy_graph, 20, 0.25, tail_class_count=2, seed=13)
        b = make_longtail_split(toy_graph, 20, 0.25, tail_class_count=2, seed=13)
        assert a == b
        c = make_longtail_split(toy_graph, 20, 0.25, tail_class_count=2, seed=14)
        assert a != c

    def test_disjoint_and_in_range(self, toy_graph):
        split = make_longtail_split(toy_graph, 20, 0.25, tail_class_count=2, seed=1)
        train, val, test = (
            set(split.train_idx),
            set(split.val_idx),
            set(split.test_idx),
        )
        assert not (train & val or train & test or val & test)
        assert (train | val | test) <= set(range(toy_graph.node_count))
        assert len(val) + len(test) + len(train) == toy_graph.node_count

    def test_class_too_small_names_class(self, toy_graph):
        with pytest.raises(ValueError, match="class 2"):
            make_longtail_split(toy_graph, 24, 1.0, tail_class_count=2, seed=0)

    def test_tail_count_must_be_under_class_count(self, toy_graph):
        with pytest.raises(ValueError, match="tail_class_count"):
            make_longtail_split(toy_graph, 20, 0.5, tail_class_count=4, seed=0)

    def test_negative_tail_count_rejected(self, toy_graph):
        # -1 would otherwise slice off the most frequent class: all but one are tails
        with pytest.raises(ValueError, match="tail_class_count must not be negative"):
            tail_classes_by_frequency(toy_graph, -1)
        with pytest.raises(ValueError, match="tail_class_count must not be negative"):
            make_longtail_split(toy_graph, 20, 0.5, tail_class_count=-1, seed=0)

    def test_ratio_validation(self, toy_graph):
        with pytest.raises(ValueError):
            make_longtail_split(toy_graph, 20, 0.0, tail_class_count=2, seed=0)

    def test_val_fraction_must_leave_a_test_node(self, toy_graph):
        # 126 nodes are left after training: 0.999 of them rounds to all
        for fraction in (-0.5, 1.0, 0.999):
            with pytest.raises(ValueError, match="val_fraction"):
                make_longtail_split(
                    toy_graph, 20, 0.1, tail_class_count=2, val_fraction=fraction, seed=0
                )
        split = make_longtail_split(
            toy_graph, 20, 0.1, tail_class_count=2, val_fraction=0.0, seed=0
        )
        assert not split.val_idx and len(split.test_idx) == 126


class TestNormalizedAdjacency:
    def test_single_isolated_node(self):
        graph = TextGraph(1, ("x",), (0,), ("a",), ())
        adj = normalized_adjacency(graph)
        np.testing.assert_array_equal(adj.todense(), [[1.0]])

    def test_two_nodes_one_edge(self):
        graph = TextGraph(2, ("x", "y"), (0, 0), ("a",), ((0, 1),))
        np.testing.assert_allclose(normalized_adjacency(graph).todense(), np.full((2, 2), 0.5))

    def test_matches_dense_oracle(self, rng):
        n = 6
        pairs = tuple(
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        )
        graph = TextGraph(n, ("t",) * n, (0,) * n, ("a",), pairs)
        # dense oracle built elementwise from the definition
        a = np.eye(n)
        for u, v in pairs:
            a[u, v] = a[v, u] = 1.0
        d = a.sum(axis=1)
        oracle = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if a[i, j]:
                    oracle[i, j] = a[i, j] / np.sqrt(d[i] * d[j])
        adj = normalized_adjacency(graph)
        np.testing.assert_allclose(adj.todense(), oracle, atol=1e-15)
        x = rng.normal(size=(n, 3))
        np.testing.assert_allclose(adj.matmul(x), oracle @ x, atol=1e-12)

    @pytest.mark.parametrize("path", ["dense", "step-major"])
    def test_plan_is_built_with_the_adjacency(self, monkeypatch, path):
        # the toy graph is dense enough to densify; a 200-node path is not
        graph = make_toy_tag(seed=2) if path == "dense" else plain_graph(
            200, tuple((i, i + 1) for i in range(199))
        )
        calls, csr_plan = [], graph_module.csr_plan
        monkeypatch.setattr(graph_module, "csr_plan", lambda *a: calls.append(a) or csr_plan(*a))
        adj = normalized_adjacency(graph, dtype=np.float32)
        assert len(calls) == 1
        want = csr_plan(adj.indptr, adj.indices, adj.data, graph.node_count)
        assert isinstance(adj.plan, np.ndarray) == (path == "dense")
        if path == "dense":
            assert np.array_equal(adj.plan, want)
        else:
            assert len(adj.plan) == len(want)
            for (lo, order, chunks), (want_lo, want_order, want_chunks) in zip(adj.plan, want):
                assert lo == want_lo and np.array_equal(order, want_order)
                assert len(chunks) == len(want_chunks)
                for got, expected in zip(chunks, want_chunks):
                    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        adj.matmul(np.ones((graph.node_count, 2)))
        assert len(calls) == 1  # every product reuses the plan


def edge_loop_normalized_adjacency(graph):
    """Oracle: the normalized CSR built by loops over the nodes and edges."""
    n = graph.node_count
    deg = np.ones(n)
    for u, v in graph.edges:
        deg[u] += 1
        deg[v] += 1
    inv_sqrt = 1.0 / np.sqrt(deg)
    rows, cols = list(range(n)), list(range(n))
    vals = [inv_sqrt[i] * inv_sqrt[i] for i in range(n)]
    for u, v in graph.edges:
        w = inv_sqrt[u] * inv_sqrt[v]
        rows.extend((u, v))
        cols.extend((v, u))
        vals.extend((w, w))
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    vals = np.array(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    return np.cumsum(indptr), cols[order], vals[order]


def plain_graph(n, edges):
    """n nodes of one class (no class when n is 0) joined by edges."""
    return TextGraph(n, ("t",) * n, (0,) * n, ("a",) if n else (), edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 14))
    pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pair_pool), unique=True)) if pair_pool else []
    return plain_graph(n, tuple(sorted(edges)))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
@example(plain_graph(0, ()))  # no nodes
@example(plain_graph(4, ((1, 2),)))  # nodes 0 and n - 1 isolated
@example(plain_graph(5, ((0, 4), (1, 2))))  # 0 and n - 1 joined, node 3 isolated
def test_normalized_adjacency_matches_edge_loop(graph):
    n = graph.node_count
    adj = normalized_adjacency(graph)
    oracle = edge_loop_normalized_adjacency(graph)
    for got, want in zip((adj.indptr, adj.indices, adj.data), oracle):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert adj.shape == (n, n)
    dense = np.zeros((n, n))
    for row in range(n):
        for j in range(adj.indptr[row], adj.indptr[row + 1]):
            dense[row, adj.indices[j]] = adj.data[j]
    np.testing.assert_array_equal(adj.todense(), dense)


def lexsort_csr(graph):
    """Oracle: both CSR forms as two lexsorts over the mirrored pairs built
    them, the adjacency (indptr, indices) and the normalized (indptr,
    indices, data)."""
    n, pairs = graph.node_count, graph.edges
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    adj_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=adj_ptr[1:])
    adj_idx = cols[np.lexsort((cols, rows))]
    degree = np.diff(adj_ptr)
    inv_sqrt = 1.0 / np.sqrt(degree + 1.0)
    nodes = np.arange(n, dtype=np.int64)
    rows = np.concatenate([nodes, np.repeat(nodes, degree)])
    cols = np.concatenate([nodes, adj_idx])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    return (adj_ptr, adj_idx), (adj_ptr + np.arange(n + 1), cols, inv_sqrt[rows] * inv_sqrt[cols])


def star(n, centre):
    return plain_graph(n, tuple((min(v, centre), max(v, centre)) for v in range(n) if v != centre))


@settings(max_examples=150, deadline=None)
@given(small_graphs())
@example(plain_graph(0, ()))  # no nodes
@example(plain_graph(1, ()))  # n = 1
@example(plain_graph(5, ()))  # no edges
@example(plain_graph(7, ((2, 4), (4, 5))))  # isolated nodes at both ends and between
@example(star(6, 0))  # a star whose centre has upper neighbours only
@example(star(6, 5))  # lower neighbours only
@example(star(7, 3))  # both
def test_counting_csr_matches_lexsort(graph):
    adjacency, normalized = lexsort_csr(graph)
    adj = normalized_adjacency(graph)
    for got, want in zip((*graph._adjacency, adj.indptr, adj.indices, adj.data),
                         (*adjacency, *normalized)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def edge_set(graph):
    """The edges of graph as a set of (u, v) tuples."""
    return set(map(tuple, graph.edges.tolist()))


class TestMergeAugmented:
    def test_empty_identity(self, toy_graph):
        assert merge_augmented(toy_graph, [], [], []) == toy_graph

    def test_counts(self, toy_graph):
        merged = merge_augmented(toy_graph, ["gen"], [2], [[(3, 0.9), (7, 0.8)]])
        assert merged.node_count == toy_graph.node_count + 1
        assert len(merged.edges) == len(toy_graph.edges) + 2
        new_id = toy_graph.node_count
        assert {(3, new_id), (7, new_id)} <= edge_set(merged)

    def test_isolated_has_degree_zero(self, toy_graph):
        merged = merge_augmented(toy_graph, ["gen"], [2], [[]])
        assert merged.neighbors(toy_graph.node_count) == []

    def test_preserves_originals(self, toy_graph):
        merged = merge_augmented(toy_graph, ["gen", "gen"], [2, 3], [[(0, 1.0)], []])
        assert edge_set(toy_graph) <= edge_set(merged)
        np.testing.assert_array_equal(merged.labels[: toy_graph.node_count], toy_graph.labels)
        assert merged.texts[: toy_graph.node_count] == toy_graph.texts

    @pytest.mark.parametrize(
        "labels, shown",
        [([2.0], "2.0"), ([True], "true"), (np.array([2.5]), "2.5"), (np.array([False]), "false")],
    )
    def test_label_that_is_not_an_int_rejected(self, toy_graph, labels, shown):
        # numpy would cast each of these to an int
        with pytest.raises(DatasetError, match=f"^label {re.escape(shown)} is not an integer$"):
            merge_augmented(toy_graph, ["gen"], labels, [[]])

    def test_unknown_id_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="unknown id"):
            merge_augmented(toy_graph, ["gen"], [2], [[(999, 1.0)]])

    def test_edge_to_earlier_synthetic(self, toy_graph):
        n = toy_graph.node_count
        merged = merge_augmented(toy_graph, ["gen", "gen"], [2, 3], [[], [(n, 1.0)]])
        assert (n, n + 1) in edge_set(merged)


class TestBenchmarkShapedExports:
    def test_cora_shaped_export(self, tmp_path, rng):
        # citation-benchmark shape: 2708 nodes, 10858 directed edge lines
        # collapsing to 5429 undirected pairs, 7 classes with 5 tail
        n, pair_count, class_count = 2708, 5429, 7
        labels = rng.integers(class_count, size=n)
        labels[:class_count] = np.arange(class_count)
        nodes = [
            {"id": i, "text": f"paper {i}", "label": int(labels[i])} for i in range(n)
        ]
        pairs = set()
        while len(pairs) < pair_count:
            u, v = rng.integers(n, size=2)
            if u != v:
                pairs.add((min(u, v), max(u, v)))
        edges = []
        for u, v in sorted(pairs):
            edges.append({"src": int(u), "dst": int(v)})
            edges.append({"src": int(v), "dst": int(u)})
        assert len(edges) == 10858
        write_raw(
            tmp_path,
            nodes,
            edges,
            {"class_names": [f"area{i}" for i in range(class_count)],
             "tail_class_count": 5},
        )
        graph = load_dataset(tmp_path)
        assert graph.node_count == 2708
        assert len(graph.edges) == 5429
        assert graph.num_classes == 7
        split = make_longtail_split(
            graph, head_count=20, imbalance_ratio=0.5, tail_class_count=5, seed=0
        )
        stats = graph_stats(graph, split)
        assert stats["class_count"] == 7 and stats["tail_class_count"] == 5

    def test_pubmed_shaped_class_counts(self, tmp_path, rng):
        n, class_count = 600, 3
        labels = rng.integers(class_count, size=n)
        labels[:class_count] = np.arange(class_count)
        nodes = [
            {"id": i, "text": f"abstract {i}", "label": int(labels[i])}
            for i in range(n)
        ]
        write_raw(
            tmp_path, nodes, [],
            {"class_names": ["d0", "d1", "d2"], "tail_class_count": 2},
        )
        graph = load_dataset(tmp_path)
        split = make_longtail_split(
            graph, head_count=20, imbalance_ratio=0.5, tail_class_count=2, seed=0
        )
        stats = graph_stats(graph, split)
        assert stats["class_count"] == 3 and stats["tail_class_count"] == 2


class TestGraphStats:
    def test_empty(self):
        graph = TextGraph(0, (), (), (), ())
        stats = graph_stats(graph)
        assert stats["node_count"] == 0 and stats["edge_count"] == 0
        assert stats["mean_text_length"] == 0.0

    def test_counts(self, toy_graph, toy_split):
        stats = graph_stats(toy_graph, toy_split)
        assert stats["node_count"] == toy_graph.node_count
        assert stats["class_count"] == 4
        assert stats["tail_class_count"] == 2
        assert stats["mean_text_length"] == round(np.mean([len(t) for t in toy_graph.texts]), 4)


def edge_scan_neighbors(graph, node):
    """Oracle: the neighbours of node by a scan over every edge."""
    return sorted([v for u, v in graph.edges if u == node] + [u for u, v in graph.edges if v == node])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_neighbors_match_edge_scan(data):
    n = data.draw(st.integers(1, 12))
    pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pair_pool), unique=True)) if pair_pool else []
    graph = TextGraph(n, ("t",) * n, (0,) * n, ("a",), tuple(sorted(edges)))
    # every node is checked, so 0, n - 1 and the isolated nodes are too
    for v in range(n):
        assert graph.neighbors(v) == edge_scan_neighbors(graph, v)
    for out_of_range in (-1, n):
        with pytest.raises(IndexError):
            graph.neighbors(out_of_range)

    # graph's index is built by now; the merged graph must answer from its own
    targets = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), unique=True, max_size=3), max_size=3)
    )
    merged = merge_augmented(
        graph, ["gen"] * len(targets), [0] * len(targets),
        [[(t, 1.0) for t in ts] for ts in targets],
    )
    for v in range(merged.node_count):
        assert merged.neighbors(v) == edge_scan_neighbors(merged, v)


@pytest.fixture()
def parsed(monkeypatch):
    """The text of each json.loads call of the loader."""
    texts = []
    loads = graph_module.json.loads

    def watched(text, *args, **kwargs):
        texts.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(graph_module.json, "loads", watched)
    return texts


def test_each_file_parses_in_one_joined_call(tmp_path, parsed):
    write_raw(
        tmp_path, small_nodes([0, 1, 0]), [{"src": 0, "dst": 1}], {"class_names": ["a", "b"]}
    )
    load_dataset(tmp_path)
    # nodes.jsonl and edges.jsonl each parse as one joined array
    assert [text[0] for text in parsed].count("[") == 2


def test_a_malformed_file_falls_back_to_the_line_by_line_parse(tmp_path, parsed):
    write_raw(tmp_path, small_nodes([0, 0]), [], {"class_names": ["a"]})
    with open(tmp_path / "nodes.jsonl", "a", encoding="utf-8") as fh:
        fh.write('{"id": 2, "label": 0, "text": \n')
    with pytest.raises(DatasetError, match="malformed JSON"):
        load_dataset(tmp_path)
    # the joined parse of nodes.jsonl failed, then its lines parsed one by one
    joined = [i for i, text in enumerate(parsed) if text.startswith("[")]
    assert len(joined) == 1 and parsed[joined[0] + 1] == json.dumps(small_nodes([0])[0])


class TestLoaderNamesFileAndLine:
    def test_malformed_json_line(self, tmp_path):
        write_raw(tmp_path, small_nodes([0, 0]), [], {"class_names": ["a"]})
        with open(tmp_path / "nodes.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"id": 2, "label": 0, "text": \n')
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 3: malformed JSON"):
            load_dataset(tmp_path)

    def test_missing_label(self, tmp_path):
        write_raw(tmp_path, [{"id": 0, "text": "x"}], [], {"class_names": ["a"]})
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 1: missing key 'label'"):
            load_dataset(tmp_path)

    def test_missing_src(self, tmp_path):
        write_raw(
            tmp_path, small_nodes([0, 0, 0]), [{"src": 0, "dst": 1}, {"dst": 2}],
            {"class_names": ["a"]},
        )
        with pytest.raises(DatasetError, match=r"^edges\.jsonl line 2: missing key 'src'"):
            load_dataset(tmp_path)

    def test_fractional_label_below_the_largest(self, tmp_path):
        write_raw(tmp_path, small_nodes([2, 1.5, 0]), [], {"class_names": ["a", "b", "c"]})
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 2: label 1\.5 is not an integer"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "node, edge, named",
        [
            ({"id": True}, None, r"^nodes\.jsonl line 2: node id true is not an integer"),
            ({"id": 1.0}, None, r"^nodes\.jsonl line 2: node id 1\.0 is not an integer"),
            ({"label": True}, None, r"^nodes\.jsonl line 2: label true is not an integer"),
            (None, {"src": True}, r"^edges\.jsonl line 1: edge endpoints \(true, 2\)"),
            (None, {"dst": 2.0}, r"^edges\.jsonl line 1: edge endpoints \(0, 2\.0\)"),
            (None, {"dst": "2"}, r'^edges\.jsonl line 1: edge endpoints \(0, "2"\)'),
        ],
    )
    def test_value_that_is_not_a_json_integer(self, tmp_path, node, edge, named):
        nodes = small_nodes([0, 0, 0])
        edges = [{"src": 0, "dst": 2}]
        nodes[1].update(node or {})
        edges[0].update(edge or {})
        write_raw(tmp_path, nodes, edges, {"class_names": ["a"]})
        with pytest.raises(DatasetError, match=named):
            load_dataset(tmp_path)

    def test_two_objects_on_one_line(self, tmp_path):
        write_raw(tmp_path, [], [], {"class_names": ["a"]})
        (tmp_path / "nodes.jsonl").write_text(
            '{"id": 0, "label": 0, "text": "x"}, {"id": 1, "label": 0, "text": "y"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 1: malformed JSON"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("at", [1, 2, 3])
    def test_two_objects_beside_texts_that_look_like_two(self, tmp_path, at):
        # Beside texts that hold "}, {", a line that holds two objects is
        # named with the line-by-line parse's error.
        write_raw(tmp_path, [], [], {"class_names": ["a"]})
        lines = [
            json.dumps({"id": i, "label": 0, "text": text})
            for i, text in enumerate(["}, {", "x", "a}, {b", "y"])
        ]
        lines[at] = lines[at] + ", " + lines[at]
        (tmp_path / "nodes.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as alone:
            json.loads(lines[at])
        with pytest.raises(DatasetError) as refused:
            load_dataset(tmp_path)
        assert str(refused.value) == f"nodes.jsonl line {at + 1}: malformed JSON: {alone.value}"

    def test_one_object_spread_over_two_lines(self, tmp_path):
        # Joined with a comma, the two lines parse as one node with text "a,".
        write_raw(tmp_path, [], [], {"class_names": ["a"]})
        (tmp_path / "nodes.jsonl").write_text(
            '{"id": 0, "label": 0, "text": "a\n"}\n', encoding="utf-8"
        )
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 1: malformed JSON"):
            load_dataset(tmp_path)

    def test_two_objects_on_one_line_cannot_make_up_for_a_split_one(self, tmp_path):
        # Joined with commas, these three lines parse as three valid nodes
        # (the first with text "a,b"); line by line, line 1 is malformed.
        write_raw(tmp_path, [], [], {"class_names": ["a"]})
        (tmp_path / "nodes.jsonl").write_text(
            '{"id": 0, "label": 0, "text": "a\n'
            'b"}\n'
            '{"id": 1, "label": 0, "text": "c"}, {"id": 2, "label": 0, "text": "d"}\n',
            encoding="utf-8",
        )
        with pytest.raises(DatasetError, match=r"^nodes\.jsonl line 1: malformed JSON"):
            load_dataset(tmp_path)

    def test_self_loop(self, tmp_path):
        write_raw(
            tmp_path, small_nodes([0, 0, 0]), [{"src": 0, "dst": 1}, {"src": 2, "dst": 2}],
            {"class_names": ["a"]},
        )
        with pytest.raises(DatasetError, match=r"^edges\.jsonl line 2: self-loop on node 2"):
            load_dataset(tmp_path)

    def test_not_an_object(self, tmp_path):
        write_raw(tmp_path, small_nodes([0]), [[0, 1]], {"class_names": ["a"]})
        with pytest.raises(DatasetError, match=r"^edges\.jsonl line 1: not a JSON object"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("first_bad", ["label", "json"])
    def test_first_of_two_bad_lines_deep_in_a_file(self, tmp_path, first_bad):
        write_raw(tmp_path, small_nodes([0, 1] * 300), [], {"class_names": ["a", "b"]})
        lines = (tmp_path / "nodes.jsonl").read_text(encoding="utf-8").split("\n")
        bad_label = json.dumps({"id": 0, "label": 0.5, "text": "x"})
        label_at, json_at = (400, 500) if first_bad == "label" else (500, 400)
        lines[label_at - 1] = bad_label.replace('"id": 0', f'"id": {label_at - 1}')
        lines[json_at - 1] = lines[json_at - 1][:-1]
        (tmp_path / "nodes.jsonl").write_text("\n".join(lines), encoding="utf-8")
        first = min(label_at, json_at)
        with pytest.raises(DatasetError, match=rf"^nodes\.jsonl line {first}: "):
            load_dataset(tmp_path)


    @pytest.mark.parametrize(
        "name, line", [("nodes.jsonl", 2), ("edges.jsonl", 1), ("meta.json", 1)]
    )
    def test_bytes_that_are_not_utf8(self, tmp_path, name, line):
        write_raw(tmp_path, small_nodes([0, 0]), [{"src": 0, "dst": 1}], {"class_names": ["a"]})
        blob = (tmp_path / name).read_bytes()
        at = blob.index(b"\n") + 3 if line == 2 else 3
        (tmp_path / name).write_bytes(blob[:at] + b"\xff" + blob[at:])
        with pytest.raises(DatasetError, match=rf"^{re.escape(name)} line {line}: not UTF-8"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends_read_as_text_mode_reads_them(self, tmp_path, end):
        write_raw(
            tmp_path, small_nodes([0, 1, 1]), [{"src": 0, "dst": 1}], {"class_names": ["a", "b"]}
        )
        want = load_dataset(tmp_path)
        for name in ("nodes.jsonl", "edges.jsonl"):
            path = tmp_path / name
            path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        assert load_dataset(tmp_path) == want


class TestMetaJson:
    def test_malformed_json(self, tmp_path):
        write_raw(tmp_path, small_nodes([0]), [], {"class_names": ["a"]})
        (tmp_path / "meta.json").write_text('{"class_names": ["a"],}', encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^meta\.json: malformed JSON"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "meta", [{}, {"class_names": "ab"}, {"class_names": None}, [["a"]]],
        ids=["missing", "string", "null", "not an object"],
    )
    def test_class_names_must_be_a_list(self, tmp_path, meta):
        write_raw(tmp_path, small_nodes([0]), [], meta)
        with pytest.raises(DatasetError, match=r"^meta\.json: class_names must be a list"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("count", ["1", 1.0, True, None])
    def test_tail_class_count_must_be_an_int(self, tmp_path, count):
        write_raw(tmp_path, small_nodes([0]), [], {"class_names": ["a"], "tail_class_count": count})
        with pytest.raises(DatasetError, match=r"^meta\.json: tail_class_count must be an integer"):
            load_dataset(tmp_path)

    def test_tail_class_count_must_not_be_negative(self, tmp_path):
        write_raw(tmp_path, small_nodes([0]), [], {"class_names": ["a"], "tail_class_count": -1})
        with pytest.raises(DatasetError, match=r"^meta\.json: tail_class_count must not be neg"):
            load_dataset(tmp_path)


@pytest.mark.parametrize(
    "label, shown",
    [(True, "true"), (1.5, "1.5"), (np.int64(0), json.dumps(repr(np.int64(0))))],
    ids=["True", "1.5", "label2"],
)
def test_text_graph_rejects_a_label_that_is_not_an_int(label, shown):
    with pytest.raises(DatasetError, match=rf"^label {re.escape(shown)} is not an integer$"):
        TextGraph(2, ("x", "y"), (label, 1), ("a", "b"), ())


@pytest.mark.parametrize(
    "texts, labels", [(("x",), (0, 1)), (("x", "y"), (0,))], ids=["texts", "labels"]
)
def test_text_graph_rejects_a_column_of_another_length(texts, labels):
    with pytest.raises(DatasetError, match="^texts/labels length must equal node_count$"):
        TextGraph(2, texts, labels, ("a", "b"), ())


def test_text_graph_rejects_a_class_count_other_than_one_past_the_top_label():
    with pytest.raises(DatasetError, match="^class_names has 3 entries but max label is 1$"):
        TextGraph(2, ("x", "y"), (0, 1), ("a", "b", "c"), ())


@pytest.mark.parametrize(
    "train, val, test", [((0, 1), (1,), (2,)), ((0,), (1,), (0, 2)), ((0,), (1, 2), (2,))]
)
def test_long_tail_split_refuses_overlapping_parts(train, val, test):
    with pytest.raises(ValueError, match="train/val/test must be pairwise disjoint"):
        LongTailSplit(train, val, test, frozenset({1}), 1, 1.0)


@pytest.mark.parametrize(
    "text, shown",
    [(5, "5"), (None, "null"), (b"x", '"b\'x\'"'), (["x"], '["x"]')],
    ids=["5", "None", "x", "text3"],
)
def test_text_graph_rejects_a_text_that_is_not_a_str(text, shown):
    # Such a graph is one write_dataset could write and load_dataset refuse.
    # A value JSON cannot hold prints as the JSON string of its repr.
    with pytest.raises(DatasetError, match=rf"^text {re.escape(shown)} is not a string$"):
        TextGraph(2, ("a", text), (0, 0), ("a",), ((0, 1),))


def three_nodes(labels=(0, 1, 0), edges=((0, 1), (1, 2))):
    return TextGraph(3, ("a", "b", "c"), labels, ("a", "b"), edges)


def loaded_copy(tmp_path):
    write_dataset(three_nodes(), tmp_path)
    return load_dataset(tmp_path)


def source_graph_copy(tmp_path):
    graph_module.write_source_graph(loaded_copy(tmp_path), tmp_path / "source_graph.npz")
    return graph_module.read_source_graph(str(tmp_path / "source_graph.npz"), tmp_path)


GRAPH_BUILDERS = {
    "tuples": lambda tmp_path: three_nodes(),
    "lists": lambda tmp_path: three_nodes([0, 1, 0], [[1, 0], [2, 1], [0, 1]]),
    "int32 arrays": lambda tmp_path: three_nodes(
        np.array([0, 1, 0], dtype=np.int32), np.array([[2, 1], [0, 1]], dtype=np.int32)
    ),
    "load_dataset": loaded_copy,
    "read_source_graph": source_graph_copy,
    "merge_augmented": lambda tmp_path: merge_augmented(
        TextGraph(2, ("a", "b"), (0, 1), ("a", "b"), ((0, 1),)), ["c"],
        np.array([0], dtype=np.int32), [[(1, 0.5)]],
    ),
}


@pytest.mark.parametrize("build", GRAPH_BUILDERS.values(), ids=list(GRAPH_BUILDERS))
def test_labels_and_edges_are_read_only_int64_arrays(tmp_path, build):
    graph = build(tmp_path)
    assert graph == three_nodes()
    for column, shape in ((graph.labels, (3,)), (graph.edges, (2, 2))):
        assert type(column) is np.ndarray and column.dtype == np.int64
        assert column.shape == shape and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1


def test_equality_reads_every_field():
    graph = three_nodes()
    assert graph == three_nodes(np.array([0, 1, 0]), [[2, 1], [1, 0]])
    assert graph != three_nodes(labels=(1, 1, 0))
    assert graph != three_nodes(edges=((0, 1),))
    assert graph != TextGraph(3, ("a", "b", "d"), (0, 1, 0), ("a", "b"), ((0, 1), (1, 2)))
    assert graph != TextGraph(3, ("a", "b", "c"), (0, 1, 0), ("a", "x"), ((0, 1), (1, 2)))
    assert graph != TextGraph(4, ("a", "b", "c", "d"), (0, 1, 0, 0), ("a", "b"), ((0, 1), (1, 2)))
    assert graph != (3, graph.texts, graph.labels, graph.class_names, graph.edges)
    with pytest.raises(TypeError):
        hash(graph)


def test_a_caller_array_stays_writeable():
    labels, edges = np.array([0, 1, 0]), np.array([[0, 1], [1, 2]])
    three_nodes(labels, edges)
    labels[0] = edges[0, 0] = 1
    assert labels.flags.writeable and edges.flags.writeable


@pytest.mark.parametrize(
    "field, values, reason",
    [
        ("labels", np.array([0, 1, 2], dtype=np.int32), "label out of range (2 not in [0, 2))"),
        ("labels", np.array([0, -1, 0]), "label out of range (-1 not in [0, 2))"),
        ("labels", np.array([0, 2**64, 0], dtype=object),
         f"label out of range ({2**64} not in [0, 2))"),
        ("labels", np.array([False, True, False]), "label false is not an integer"),
        ("labels", np.array([0.0, 1.5, 0.0]), "label 0.0 is not an integer"),
        ("edges", np.array([[0, 1], [1, 3]]), "edge endpoint out of range (1, 3)"),
        ("edges", np.array([[0, 1], [-1, 2]], dtype=np.int32),
         "edge endpoint out of range (-1, 2)"),
        ("edges", np.array([[0, 2**63]], dtype=np.uint64),
         f"edge endpoint out of range (0, {2**63})"),
        ("edges", np.array([[0, 1], [2, 2]]), "self-loop on node 2"),
        ("edges", np.array([[True, False]]), "edge endpoints (true, false) are not integers"),
        ("edges", np.array([[0.0, 1.0]]), "edge endpoints (0.0, 1.0) are not integers"),
    ],
)
def test_an_array_is_refused_as_a_list_of_its_values(field, values, reason):
    # The loader's reason for the first bad entry; numpy would cast a bool
    # or float to an int.
    for given in (values.tolist(), values):
        with pytest.raises(DatasetError, match=f"^{re.escape(reason)}$"):
            three_nodes(**{field: given})


# Texts the fast writer and loader must carry unchanged: JSON escapes,
# control characters, non-ASCII, and U+0085 / U+2028, which ensure_ascii=False
# writes raw and str.splitlines would split on.
SPECIAL_TEXTS = ['"', "\\", "\x00", "\x1f", "\t", "\r", "\n", "\x85", " ", " ",
                 "é", "日本", "}, {", "},{", ""]
texts = st.lists(
    st.one_of(st.sampled_from(SPECIAL_TEXTS), st.characters(blacklist_categories=("Cs",))),
    max_size=8,
).map("".join)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def text_graphs(draw, max_nodes=8):
    n = draw(st.integers(0, max_nodes))
    class_count = draw(st.integers(1, 3))
    labels = [draw(st.integers(0, class_count - 1)) for _ in range(n)]
    if n:
        labels[0] = class_count - 1  # class_names length must be 1 + max label
    pair_pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pair_pool), unique=True)) if pair_pool else []
    return TextGraph(
        node_count=n,
        texts=tuple(draw(st.lists(texts, min_size=n, max_size=n))),
        labels=tuple(labels),
        class_names=tuple(f"c{i}" for i in range(class_count)) if n else (),
        edges=tuple(edges),
    )


def oracle_write(graph, directory, provenance):
    """Writer oracle: one json.dumps per record."""
    def dump(name, records):
        with open(directory / name, "w", encoding="utf-8", newline="\n") as fh:
            for rec in records:
                fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n")

    dump("nodes.jsonl", (
        {"id": nid, "text": text, "label": label}
        for nid, (text, label) in enumerate(zip(graph.texts, graph.labels.tolist()))
    ))
    dump("edges.jsonl", ({"src": u, "dst": v} for u, v in graph.edges.tolist()))
    dump("provenance.jsonl", provenance)


@settings(max_examples=60, deadline=None)
@given(text_graphs(), st.lists(st.dictionaries(texts, json_values, max_size=4), max_size=4))
def test_write_dataset_bytes_match_per_record_dumps(tmp_path_factory, graph, provenance):
    fast, oracle = tmp_path_factory.mktemp("fast"), tmp_path_factory.mktemp("oracle")
    write_dataset(graph, fast, provenance=provenance)
    oracle_write(graph, oracle, provenance)
    for name in ("nodes.jsonl", "edges.jsonl", "provenance.jsonl"):
        assert (fast / name).read_bytes() == (oracle / name).read_bytes()


def oracle_load(directory):
    """Loader oracle: each non-blank line parsed and checked on its own. It
    raises DatasetError naming the first bad line, not the loader's text."""
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    class_count = len(meta["class_names"])

    def records(name, keys):
        with open(directory / name, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    rec = None
                if not isinstance(rec, dict) or not set(keys) <= rec.keys():
                    raise DatasetError(f"{name} line {lineno}: bad record")
                yield f"{name} line {lineno}: bad value", [rec[key] for key in keys]

    texts, labels = [], []
    for bad, (nid, text, label) in records("nodes.jsonl", ("id", "text", "label")):
        if type(nid) is not int or nid != len(texts):
            raise DatasetError(bad)
        if type(label) is not int or not 0 <= label < class_count:
            raise DatasetError(bad)
        if type(text) is not str:
            raise DatasetError(bad)
        texts.append(text)
        labels.append(label)
    n, pairs = len(texts), []
    for bad, (u, v) in records("edges.jsonl", ("src", "dst")):
        if type(u) is not int or type(v) is not int:
            raise DatasetError(bad)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise DatasetError(bad)
        pairs.append((u, v))
    return TextGraph(n, tuple(texts), tuple(labels), tuple(meta["class_names"]), pairs)


def outcome(load, directory):
    """The graph, or the part of the DatasetError before the first colon."""
    try:
        return load(directory)
    except DatasetError as exc:
        return str(exc).split(":")[0]


NODE_FAULTS = {
    "truncated": lambda rec, line: line[:-1],
    "split": lambda rec, line: line[: len(line) // 2] + "\n" + line[len(line) // 2 :],
    # joined with a comma, the two halves parse as one node whose text ends in ","
    "split text": lambda rec, line: line[:-2] + "\n" + line[-2:],
    "two objects": lambda rec, line: line + ", " + line,
    "array": lambda rec, line: "[0, 1]",
    "no label": lambda rec, line: json.dumps({"id": rec["id"], "text": "x"}),
    "bool id": lambda rec, line: json.dumps({**rec, "id": True}),
    "float id": lambda rec, line: json.dumps({**rec, "id": float(rec["id"])}),
    "repeated id": lambda rec, line: json.dumps({**rec, "id": max(rec["id"] - 1, 0)}),
    "float label": lambda rec, line: json.dumps({**rec, "label": rec["label"] + 0.5}),
    "bool label": lambda rec, line: json.dumps({**rec, "label": False}),
    "negative label": lambda rec, line: json.dumps({**rec, "label": -1}),
    "huge label": lambda rec, line: json.dumps({**rec, "label": 2**70}),
    "int text": lambda rec, line: json.dumps({**rec, "text": 5}),
}
EDGE_FAULTS = {
    "truncated": lambda rec, line: line[:-1],
    "two objects": lambda rec, line: line + "," + line,
    "no src": lambda rec, line: json.dumps({"dst": rec["dst"]}),
    "bool src": lambda rec, line: json.dumps({**rec, "src": True}),
    "float dst": lambda rec, line: json.dumps({**rec, "dst": float(rec["dst"])}),
    "self-loop": lambda rec, line: json.dumps({**rec, "dst": rec["src"]}),
    "outside": lambda rec, line: json.dumps({**rec, "dst": -1}),
    "huge": lambda rec, line: json.dumps({**rec, "src": 2**70}),
}


@settings(max_examples=150, deadline=None)
@given(text_graphs(max_nodes=12), st.data())
def test_load_dataset_matches_per_line_loader(tmp_path_factory, graph, data):
    directory = tmp_path_factory.mktemp("load")
    write_dataset(graph, directory, tail_class_count=1)
    for name, faults in (("nodes.jsonl", NODE_FAULTS), ("edges.jsonl", EDGE_FAULTS)):
        lines = (directory / name).read_text(encoding="utf-8").split("\n")[:-1]
        # up to two faulty lines anywhere, then blank lines between any two
        spots = st.lists(st.integers(0, len(lines) - 1), max_size=2, unique=True)
        for at in data.draw(spots) if lines else []:
            fault = faults[data.draw(st.sampled_from(sorted(faults)))]
            lines[at] = fault(json.loads(lines[at]), lines[at])
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", " ", "\t", "\x85 "])))
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        body = "".join(line.replace("\n", newline) + newline for line in lines)
        (directory / name).write_bytes(body.encode("utf-8"))
    expected = outcome(oracle_load, directory)
    assert outcome(load_dataset, directory) == expected
    if isinstance(expected, TextGraph):
        assert expected == graph


BLANK_LINES = ["", " ", "\t", "\r", "\x85 ", "\u2028"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.dictionaries(st.sampled_from("abc"), st.integers(-3, 3)), max_size=6),
    st.data(),
)
@example([], None)
@example([{"a": 1}, {"b": 2}], None)
def test_blank_lines_keep_the_joined_parse(records, data):
    # Blank lines between records, at either end, or making up the whole
    # file: the joined parse takes them (it does not give up, None) and
    # gives the line-by-line parse's records.
    lines = [json.dumps(rec) for rec in records]
    if data is None:  # a blank line in each gap and at both ends
        lines = [" "] + [part for line in lines for part in (line, "\t")]
    else:
        for _ in range(data.draw(st.integers(1, 4))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(BLANK_LINES)))
    text = "\n".join(lines) + "\n"
    assert graph_module._parse_jsonl(text) == [
        json.loads(line) for line in filter(str.strip, text.split("\n"))
    ] == records


def naive_merge(graph, syn_texts, syn_labels, syn_edges):
    """merge_augmented oracle: one node and one edge at a time."""
    texts, labels, edges = list(graph.texts), graph.labels.tolist(), graph.edges.tolist()
    for i, (text, label, node_edges) in enumerate(zip(syn_texts, syn_labels, syn_edges)):
        new_id = graph.node_count + i
        texts.append(text)
        labels.append(label)
        for target, _score in node_edges:
            if not 0 <= target < new_id:
                raise ValueError(f"synthetic node {i} references unknown id {target}")
            edges.append((target, new_id))
    return TextGraph(len(texts), tuple(texts), tuple(labels), graph.class_names, edges)


@settings(max_examples=100, deadline=None)
@given(text_graphs(max_nodes=6), st.data())
def test_merge_augmented_matches_node_loop(graph, data):
    if not graph.node_count:
        return
    top = graph.node_count + 3
    count = data.draw(st.integers(0, 3))
    texts = ["gen"] * count
    labels = data.draw(st.lists(st.integers(0, graph.num_classes - 1), min_size=count, max_size=count))
    edges = [
        [(t, 1.0) for t in data.draw(st.lists(st.integers(-1, top), max_size=4))]
        for _ in range(count)
    ]
    try:
        expected = naive_merge(graph, texts, labels, edges)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            merge_augmented(graph, texts, labels, edges)
    else:
        assert merge_augmented(graph, texts, labels, edges) == expected
