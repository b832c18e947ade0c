import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagaug import embedding
from tagaug.edges import (
    EdgeAssignConfig,
    assign_edges,
    duplicate_edges,
    score_edges,
    select_topk_global,
    train_confidence,
    wire_nodes,
)
from tagaug.embedding import EmbeddingMatrix, _best, encode_hashing
from tagaug.generation import (
    GeneratorConfig,
    SyntheticNode,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    rebalance_targets,
)
from tagaug.graph import (
    LongTailSplit,
    TextGraph,
    load_dataset,
    make_longtail_split,
    merge_augmented,
    normalized_adjacency,
    write_dataset,
)
from tagaug.neural import TrainConfig, forward, train_classifier
from tagaug.pipeline import write_artifacts


def quick_cfg(epochs=200):
    return TrainConfig(
        epochs=epochs, learning_rate=0.001, dropout=0.0, hidden_dims=(32,), seed=0
    )


def blobs(rng, n_per=30, spread=0.25):
    a = rng.normal(size=(n_per, 8)) * spread + np.r_[np.ones(4), np.zeros(4)]
    b = rng.normal(size=(n_per, 8)) * spread - np.r_[np.ones(4), np.zeros(4)]
    rows = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return EmbeddingMatrix(vectors=rows, encoder_id="test"), labels


class TestTrainConfidence:
    def test_separated_blobs_score_high_on_holdout(self, rng):
        emb, labels = blobs(rng)
        train_idx = np.r_[np.arange(0, 20), np.arange(30, 50)]
        held = np.r_[np.arange(20, 30), np.arange(50, 60)]
        conf = train_confidence(emb, labels, train_idx, quick_cfg())
        assert conf.kappa(emb.vectors[held]).mean() >= 0.9

    def test_kappa_range(self, rng):
        emb, labels = blobs(rng, n_per=10)
        conf = train_confidence(emb, labels, np.arange(20), quick_cfg(epochs=5))
        kappa = conf.kappa(rng.normal(size=(40, 8)))
        assert np.all(kappa >= 0.5 - 1e-12) and np.all(kappa <= 1.0 + 1e-12)

    def test_single_class_rejected(self, rng):
        emb, labels = blobs(rng, n_per=5)
        with pytest.raises(ValueError, match="2 classes"):
            train_confidence(emb, labels, np.arange(5), quick_cfg(epochs=2))


class StubConfidence:
    def __init__(self, kappa_values):
        self.values = np.asarray(kappa_values, dtype=np.float64)

    def kappa(self, rows):
        return self.values


class TestScoreEdges:
    def test_orthogonal_scores_zero(self):
        emb = EmbeddingMatrix(vectors=np.eye(3), encoder_id="t")
        conf = StubConfidence([0.9, 0.8, 0.7])
        scores = score_edges(np.array([[0.0, 0.0, 1.0]]), emb, conf)
        assert scores.shape == (1, 3)
        assert scores[0, 0] == pytest.approx(0.0)
        assert scores[0, 1] == pytest.approx(0.0)
        assert scores[0, 2] == pytest.approx(0.7)

    def test_kappa_monotonicity(self):
        emb = EmbeddingMatrix(vectors=np.eye(2), encoder_id="t")
        syn = np.array([[1.0, 0.0]])
        low = score_edges(syn, emb, StubConfidence([0.2, 1.0]))
        high = score_edges(syn, emb, StubConfidence([0.9, 1.0]))
        assert high[0, 0] > low[0, 0]
        assert high[0, 1] == low[0, 1]

    def test_matches_product_oracle(self, rng):
        emb = EmbeddingMatrix(vectors=rng.normal(size=(10, 6)), encoder_id="t")
        syn = rng.normal(size=(4, 6))
        kappa = rng.uniform(0.5, 1.0, size=10)
        scores = score_edges(syn, emb, StubConfidence(kappa))
        assert scores.shape == (4, 10)
        for (s, o), score in np.ndenumerate(scores):
            u = emb.vectors[o]
            v = syn[s]
            cos = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
            assert score == pytest.approx(kappa[o] * cos, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        emb = EmbeddingMatrix(vectors=rng.normal(size=(3, 4)), encoder_id="t")
        with pytest.raises(ValueError, match="dimension mismatch"):
            score_edges(rng.normal(size=(1, 5)), emb, StubConfidence(np.ones(3)))


def cand(rows):
    return np.array(rows, dtype=np.float64)


class TestSelectTopkGlobal:
    def test_threshold_above_everything_isolates_all(self):
        cands = cand([[0, 0, 0.2], [1, 1, 0.3], [2, 2, 0.1]])
        selected, isolated = select_topk_global(
            cands, 3, EdgeAssignConfig(factor=2, tau_conf=0.9)
        )
        assert len(selected) == 0
        assert isolated == [0, 1, 2]

    def test_budget_pigeonhole(self):
        # one synthetic node dominates the top-3 scores at factor 1
        cands = cand(
            [[0, 0, 0.9], [0, 1, 0.8], [0, 2, 0.7], [1, 0, 0.5], [2, 0, 0.4]]
        )
        selected, isolated = select_topk_global(cands, 3, EdgeAssignConfig(factor=1))
        assert len(selected) == 3
        assert set(selected[:, 0]) == {0.0}
        assert isolated == [1, 2]

    def test_matches_sort_oracle(self, rng):
        for _ in range(100):
            n_syn = int(rng.integers(1, 6))
            rows = []
            for s in range(n_syn):
                for o in range(int(rng.integers(1, 10))):
                    rows.append([s, o, float(rng.normal())])
            cands = cand(rows)
            cfg = EdgeAssignConfig(factor=max(1, int(rng.integers(1, 4))), tau_conf=0.0)
            selected, isolated = select_topk_global(cands, n_syn, cfg)

            keep = [r for r in rows if r[2] >= cfg.tau_conf]
            keep.sort(key=lambda r: (-r[2], r[0], r[1]))
            want = keep[: n_syn * cfg.factor]
            assert [list(r) for r in selected] == want
            connected = {int(r[0]) for r in want}
            assert isolated == [i for i in range(n_syn) if i not in connected]

    def test_selected_count_rule(self, rng):
        cands = cand([[0, o, s] for o, s in enumerate(rng.uniform(0, 1, 20))])
        cfg = EdgeAssignConfig(factor=7, tau_conf=0.5)
        selected, _ = select_topk_global(cands, 1, cfg)
        above = int((cands[:, 2] >= 0.5).sum())
        assert len(selected) == min(7, above)

    def test_isolation_monotone_in_threshold(self, rng):
        cands = cand(
            [[s, o, float(rng.uniform(0, 1))] for s in range(5) for o in range(8)]
        )
        previous = set()
        for tau in (0.0, 0.3, 0.6, 0.9):
            _, isolated = select_topk_global(
                cands, 5, EdgeAssignConfig(factor=2, tau_conf=tau)
            )
            assert previous <= set(isolated)
            previous = set(isolated)


def brute_force_topk(rows, synthetic_count, cfg):
    """Oracle: every candidate at or above tau_conf (NaN never is), ranked
    by (-score, syn, orig) with a full sort; the first k win."""
    keep = [r for r in rows if r[2] >= cfg.tau_conf]
    keep.sort(key=lambda r: (-r[2], r[0], r[1]))
    want = keep[: synthetic_count * cfg.factor]
    connected = {int(r[0]) for r in want}
    return want, [i for i in range(synthetic_count) if i not in connected]


@st.composite
def topk_cases(draw):
    synthetic_count = draw(st.integers(1, 5))
    # few distinct scores, so ties at the cut are common; NaN is dropped
    scores = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0, float("nan")])
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, synthetic_count - 1), st.integers(0, 6), scores),
            max_size=40,
        )
    )
    cfg = EdgeAssignConfig(
        factor=draw(st.integers(1, 12)),  # k reaches past the candidate count
        tau_conf=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9])),
    )
    return [list(map(float, r)) for r in rows], synthetic_count, cfg


@settings(max_examples=300, deadline=None)
@given(topk_cases())
@example(  # three candidates tie at the cut of k = 2
    ([[1.0, 1.0, 0.5], [0.0, 2.0, 0.5], [0.0, 0.0, 0.5], [1.0, 0.0, float("nan")]],
     2, EdgeAssignConfig(factor=1))
)
def test_select_topk_global_matches_brute_force(case):
    rows, synthetic_count, cfg = case
    selected, isolated = select_topk_global(cand(rows).reshape(-1, 3), synthetic_count, cfg)
    want, want_isolated = brute_force_topk(rows, synthetic_count, cfg)
    np.testing.assert_array_equal(selected, cand(want).reshape(-1, 3))
    assert isolated == want_isolated


@pytest.mark.parametrize("tau_conf", [0.0, 0.5])
@pytest.mark.parametrize("shuffled", [False, True])
def test_select_topk_global_partition_matches_full_sort(tau_conf, shuffled):
    # 60 x 500 candidates on a 0.01 grid: k = 180 of up to 30,000, with
    # many candidates tied at the cut
    rng = np.random.default_rng(11)
    n_syn, n_orig = 60, 500
    syn, orig = np.divmod(np.arange(n_syn * n_orig), n_orig)
    scores = np.round(rng.uniform(0.0, 1.0, n_syn * n_orig), 2)
    cands = np.column_stack([syn, orig, scores]).astype(np.float64)
    if shuffled:
        doubled = cands[rng.choice(len(cands), size=2000, replace=False)]
        cands = rng.permutation(np.vstack([cands, doubled]))
    cfg = EdgeAssignConfig(factor=3, tau_conf=tau_conf)
    selected, isolated = select_topk_global(cands, n_syn, cfg)

    keep = cands[cands[:, 2] >= tau_conf]
    assert len(keep) > 50 * n_syn * cfg.factor
    want = keep[np.lexsort((keep[:, 1], keep[:, 0], -keep[:, 2]))][: n_syn * cfg.factor]
    assert np.sum(keep[:, 2] == want[-1, 2]) > 1  # the cut falls inside a tie
    assert np.array_equal(selected, want)
    connected = set(want[:, 0].astype(int))
    assert isolated == [i for i in range(n_syn) if i not in connected]


def full_table(scores):
    """The (S*N, 3) table of every (syn, orig, score) candidate, row-major."""
    n_syn, n_orig = scores.shape
    syn, orig = np.divmod(np.arange(n_syn * n_orig), n_orig)
    return np.column_stack([syn, orig, scores.ravel()])


@st.composite
def wiring_cases(draw):
    n_syn, n_orig = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    # entries in {-1, 0, 1}: repeated directions tie, all-zero rows score 0
    vectors = st.lists(st.integers(-1, 1), min_size=3, max_size=3)
    syn = draw(st.lists(vectors, min_size=n_syn, max_size=n_syn))
    orig = draw(st.lists(vectors, min_size=n_orig, max_size=n_orig))
    kappa = draw(st.lists(st.sampled_from([0.5, 0.75, 1.0]), min_size=n_orig, max_size=n_orig))
    cfg = EdgeAssignConfig(
        factor=draw(st.integers(1, 10)),  # k reaches past S * N
        tau_conf=draw(st.sampled_from([0.0, 0.3, 0.5])),
    )
    return np.array(syn, dtype=np.float64), np.array(orig, dtype=np.float64), kappa, cfg


@settings(max_examples=300, deadline=None)
@given(wiring_cases())
@example(  # identical rows: every score ties, and k = 2 cuts inside the tie
    (np.ones((2, 3)), np.ones((3, 3)), [1.0, 1.0, 1.0], EdgeAssignConfig(factor=1))
)
@example(  # zero-norm rows score 0, which tau_conf 0 keeps
    (np.zeros((2, 3)), np.eye(3), [0.5, 0.75, 1.0], EdgeAssignConfig(factor=2))
)
@example(  # tau_conf above every score: no edge, and no quantiles
    (np.ones((2, 3)), -np.ones((3, 3)), [1.0, 1.0, 1.0], EdgeAssignConfig(tau_conf=0.3))
)
def test_assign_edges_matches_select_topk_global_over_the_full_table(case):
    syn, orig, kappa, cfg = case
    emb = EmbeddingMatrix(vectors=orig, encoder_id="t")
    conf = StubConfidence(kappa)
    table = full_table(score_edges(syn, emb, conf))
    selected, isolated = select_topk_global(table, len(syn), cfg)
    # both sides select through _best, so the full sort checks them
    want, want_isolated = brute_force_topk(table.tolist(), len(syn), cfg)
    np.testing.assert_array_equal(selected, np.reshape(want, (-1, 3)))
    assert isolated == want_isolated

    wired, summary = assign_edges(syn, None, emb, conf, cfg)

    per_node = [[] for _ in syn]
    for s, o, score in selected:
        per_node[int(s)].append((int(o), float(score)))
    assert wired == [sorted(edges) for edges in per_node]
    assert [i for i, node_edges in enumerate(wired) if not node_edges] == isolated
    # the quantiles describe the wired edges' scores, none when none is
    quantiles = []
    if len(selected):
        quantiles = np.quantile(selected[:, 2], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert summary == {
        "k_edge": len(syn) * cfg.factor,
        "edges_added": len(selected),
        "isolated": len(isolated),
        "score_quantiles": [round(float(q), 6) for q in quantiles],
    }


def test_assign_edges_peak_memory_is_about_one_score_matrix():
    # The score matrix and the cosine product's temporaries; the cut scans
    # it in blocks, and no (S * N, 3) table is built.
    rng = np.random.default_rng(3)
    n_syn, n_orig, dim = 40, 2000, 16
    emb = EmbeddingMatrix(vectors=rng.normal(size=(n_orig, dim)), encoder_id="t")
    rows = rng.normal(size=(n_syn, dim))
    conf = StubConfidence(rng.uniform(0.5, 1.0, n_orig))
    cfg = EdgeAssignConfig(factor=20)
    assign_edges(rows[:2], None, emb, conf, cfg)  # lazy imports stay out of the peak
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assign_edges(rows, None, emb, conf, cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * n_syn * n_orig * 8 + n_orig * dim * 8


def full_sort_best(scores, k, tau):
    """Oracle: a full stable sort of the positions at or above tau on
    (-score, position)."""
    pos = np.flatnonzero(scores >= tau)
    return pos[np.lexsort((pos, -scores[pos]))][:k]


# Blocks of 1 to 8 scores straddle the eligible runs and the ties at the
# running cut; -0.0 == 0.0, so the lower position wins between them.
@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.floats() | st.sampled_from([0.0, -0.0, 0.3, 0.5, 1.0]), max_size=60),
    st.integers(1, 64),
    st.sampled_from([-np.inf, 0.0, 0.3]),
    st.integers(1, 8),
)
@example([float("nan")] * 5 + [0.5], 1, 0.0, 2)  # NaN is never eligible
@example([0.3] * 9 + [float("inf"), -float("inf")], 4, 0.3, 3)  # ties at tau
@example([-float("inf")] * 3 + [0.5], 2, -np.inf, 1)  # -inf is at or above -inf
@example([0.5, 0.1, 0.9], 2, 0.3, 1)  # k equals the eligible count
@example([0.5, 0.9, 0.5, 0.5, 0.9, 0.5], 3, 0.0, 2)  # later ties at the cut lose
def test_best_matches_a_full_stable_sort(values, k, tau, block):
    scores = np.array(values, dtype=np.float64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "_CUT_BLOCK", block)
        got = _best(scores, k, tau)
    np.testing.assert_array_equal(got, full_sort_best(scores, k, tau))


def test_best_holds_no_copy_of_the_scores():
    # wiring_10k's shape and k. With k below the block, the scan holds one
    # block's mask and eligible positions, their concatenation with the
    # kept positions, those positions' scores and their partitioned copy,
    # and the final sort: under 5 blocks of float64 (a negated copy of all
    # the scores is 475 x 10,000 x 8 bytes, 38 MB).
    scores = np.random.default_rng(0).uniform(size=475 * 10_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _best(scores, 9_500, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5 * embedding._CUT_BLOCK * 8


class TestDuplicateEdges:
    def test_copies_anchor_neighbors(self):
        graph = TextGraph(
            5, ("t",) * 5, (0,) * 5, ("a",), ((0, 1), (0, 4), (2, 3))
        )
        assert duplicate_edges(0, graph) == [1, 4]

    def test_degree_zero_anchor(self):
        graph = TextGraph(3, ("t",) * 3, (0,) * 3, ("a",), ((1, 2),))
        assert duplicate_edges(0, graph) == []

    def test_membership_oracle(self, toy_graph, rng):
        for anchor in rng.integers(toy_graph.node_count, size=10):
            targets = duplicate_edges(int(anchor), toy_graph)
            neighborhood = set(toy_graph.neighbors(int(anchor)))
            assert all(t in neighborhood for t in targets)
            assert len(targets) == len(neighborhood)


def mock_pipeline_nodes(graph, seed=7):
    split = make_longtail_split(
        graph, head_count=20, imbalance_ratio=0.1, tail_class_count=2, seed=seed
    )
    labels = graph.labels.tolist()
    emb = encode_hashing(graph.texts, 256)
    pairs = find_vicinal_twins(
        split, emb, labels, 3, rebalance_targets(labels, split), "S"
    )
    return split, labels, emb, pairs


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, toy_graph):
    split, labels, emb, pairs = mock_pipeline_nodes(toy_graph)
    cache = tmp_path_factory.mktemp("cache") / "gen.jsonl"
    nodes, _ = generate_interpolations(
        pairs, "S", GeneratorConfig(kind="mock", seed=3),
        default_prompt_spec("toy"), toy_graph.texts, toy_graph.class_names, cache,
    )
    rows = encode_hashing([n.text for n in nodes], 256).vectors
    conf_cfg = TrainConfig(
        epochs=300, learning_rate=0.001, dropout=0.0, hidden_dims=(256,), seed=0
    )
    conf = train_confidence(emb, labels, split.train_idx, conf_cfg)
    return toy_graph, emb, nodes, rows, conf


class TestAssignEdges:
    def test_in_class_nodes_rarely_isolated(self, pipeline):
        graph, emb, nodes, rows, conf = pipeline
        anchors = [node.provenance["anchor"] for node in nodes]
        filled, summary = wire_nodes(
            rows, anchors, graph, "confidence", emb, conf, EdgeAssignConfig()
        )
        assert summary["isolated"] / len(filled) < 0.10
        assert summary["edges_added"] == len(filled) * 20

        # the other strategies' summaries, and every strategy on no nodes
        none_filled, none_summary = wire_nodes(
            rows, anchors, graph, "none", emb, None, EdgeAssignConfig()
        )
        assert none_filled == [[] for _ in nodes]
        assert none_summary == {
            "k_edge": 0, "edges_added": 0, "isolated": len(nodes), "score_quantiles": []
        }
        for strategy in ("confidence", "duplicate", "none"):
            assert wire_nodes([], [], graph, strategy, emb, None, EdgeAssignConfig()) == (
                [], {"k_edge": 0, "edges_added": 0, "isolated": 0, "score_quantiles": []}
            )

    def test_out_of_vocabulary_text_isolated(self, pipeline):
        graph, emb, nodes, rows, conf = pipeline
        alien = encode_hashing(["qqq www zzz yyy xxx"], 256).vectors
        filled, summary = assign_edges(
            alien, graph, emb, conf, EdgeAssignConfig(factor=8, tau_conf=0.5)
        )
        assert filled == [[]]
        assert summary == {"k_edge": 8, "edges_added": 0, "isolated": 1, "score_quantiles": []}

    def test_isolated_count_non_increasing_in_factor(self, pipeline):
        graph, emb, nodes, rows, conf = pipeline
        counts = []
        for factor in (1, 20, 400):
            _, summary = assign_edges(
                rows, graph, emb, conf, EdgeAssignConfig(factor=factor, tau_conf=0.35)
            )
            counts.append(summary["isolated"])
        assert counts == sorted(counts, reverse=True)

    def test_isolated_node_invariant_in_trained_forward(self, pipeline, rng):
        graph, emb, nodes, rows, conf = pipeline
        merged = merge_augmented(graph, [nodes[0].text], [nodes[0].label], [[]])
        adj = normalized_adjacency(merged)
        features = np.vstack([emb.vectors, rows[:1]])
        labels = np.array(merged.labels)
        cfg = TrainConfig(epochs=30, learning_rate=0.01, dropout=0.5,
                          hidden_dims=(16,), seed=0)
        model = train_classifier(
            features, labels, np.arange(graph.node_count), cfg, kind="gcn",
            adjacency=adj,
        )
        base, _ = forward(model, features, adjacency=adj)
        perturbed = features.copy()
        perturbed[: graph.node_count] += rng.normal(size=(graph.node_count, 256))
        moved, _ = forward(model, perturbed, adjacency=adj)
        np.testing.assert_array_equal(base[-1], moved[-1])


@pytest.fixture(scope="module")
def loaded_toy(tmp_path_factory, toy_graph):
    """The toy graph as load_dataset returns it (write_artifacts needs its
    dataset digest), with 16-dim hashing embeddings and fixed kappas."""
    data = tmp_path_factory.mktemp("toy") / "data"
    write_dataset(toy_graph, data, tail_class_count=2)
    graph = load_dataset(data)
    emb = encode_hashing(graph.texts, 16)
    kappa = np.random.default_rng(5).uniform(0.3, 1.0, graph.node_count)
    return graph, emb, StubConfidence(kappa)


@settings(max_examples=40, deadline=None)
@given(
    strategy=st.sampled_from(["confidence", "duplicate", "none"]),
    data=st.data(),
)
def test_wired_columns_agree_with_summary_merge_and_provenance(loaded_toy, strategy, data):
    graph, emb, conf = loaded_toy
    count = data.draw(st.integers(0, 6))
    rows = np.array(
        data.draw(st.lists(
            st.lists(st.floats(-1, 1), min_size=emb.dim, max_size=emb.dim),
            min_size=count, max_size=count,
        )),
        dtype=np.float64,
    ).reshape(count, emb.dim)
    anchors = data.draw(st.lists(
        st.integers(0, graph.node_count - 1), min_size=count, max_size=count
    ))
    labels = data.draw(st.lists(
        st.integers(0, graph.num_classes - 1), min_size=count, max_size=count
    ))
    cfg = EdgeAssignConfig(factor=data.draw(st.integers(1, 30)))

    edges, summary = wire_nodes(rows, anchors, graph, strategy, emb, conf, cfg)

    assert len(edges) == count
    assert summary["edges_added"] == sum(map(len, edges))
    assert summary["isolated"] == sum(1 for node_edges in edges if not node_edges)
    texts = [f"syn {i}" for i in range(count)]
    merged = merge_augmented(graph, texts, labels, edges)
    assert len(merged.edges) == len(graph.edges) + summary["edges_added"]

    nodes = [
        SyntheticNode(text=text, label=label, provenance={"anchor": anchor})
        for text, label, anchor in zip(texts, labels, anchors)
    ]
    split = LongTailSplit((0,), (1,), (2,), frozenset({1}), 1, 1.0)
    with tempfile.TemporaryDirectory() as out:
        write_artifacts(out, graph, split, 2, nodes, edges, emb, EmbeddingMatrix(rows, "t"))
        lines = (Path(out) / "augmented" / "provenance.jsonl").read_text(encoding="utf-8")
    records = [json.loads(line) for line in lines.splitlines()]
    assert [rec["isolated"] for rec in records] == [not node_edges for node_edges in edges]
    assert [rec["edges"] for rec in records] == [
        [[t, round(score, 6)] for t, score in node_edges] for node_edges in edges
    ]
