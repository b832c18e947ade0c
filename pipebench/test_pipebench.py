"""Tests of the benchmark's own parts. Run from the repository root:

    PYTHONPATH=src python3 -m pytest pipebench -q

test_traced_criterion_7_call_counts runs the full criterion-7 config
under the tracer and takes about a minute.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import requests

import run
import stub
import tracing
from sampler import sample_tag
from workloads import (
    LARGE_CLASS_SIZES,
    LARGE_TAIL_COUNT,
    ToyE2E,
    start_stub,
    stop_stub,
    stub_stats,
    topk_oracle,
)
from tagaug.edges import EdgeAssignConfig, select_topk_global
from tagaug.graph import write_dataset

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _dataset_bytes(graph, directory):
    write_dataset(graph, directory, tail_class_count=LARGE_TAIL_COUNT)
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def test_sampler_same_seed_gives_byte_identical_datasets(tmp_path):
    first, _ = sample_tag(LARGE_CLASS_SIZES, seed=3)
    second, _ = sample_tag(LARGE_CLASS_SIZES, seed=3)
    other, _ = sample_tag(LARGE_CLASS_SIZES, seed=4)
    a = _dataset_bytes(first, tmp_path / "a")
    assert a == _dataset_bytes(second, tmp_path / "b")
    assert a != _dataset_bytes(other, tmp_path / "c")
    assert first.node_count == 10_000
    assert 44_000 < len(first.edges) < 50_000


def test_sampler_keeps_tail_parent_structure():
    sizes = (300, 300, 120, 120)
    graph, parents = sample_tag(sizes, avg_degree=12, seed=0)
    assert parents == {2: 0, 3: 1}
    labels = np.array(graph.labels)
    counts = Counter(map(tuple, np.sort(labels[np.array(graph.edges)], axis=1).tolist()))
    # tails link to their parent almost as often as to themselves, and far
    # more than to an unrelated class
    assert counts[(0, 2)] > 0.5 * counts[(2, 2)]
    assert counts[(0, 2)] > 10 * counts[(1, 2)]
    tail_text = " ".join(t for t, lab in zip(graph.texts, graph.labels) if lab == 2)
    assert tail_text.count("w0t") > 0.3 * tail_text.count("w2t")


def test_topk_oracle_matches_select_topk_global():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n_syn, n_orig = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        # few distinct values, so ties at the cut are common
        scores = rng.integers(0, 4, size=(n_syn, n_orig)) / 4.0
        cfg = EdgeAssignConfig(factor=int(rng.integers(1, 4)), tau_conf=float(rng.choice([0.0, 0.3])))
        rows = np.array(
            [[s, o, scores[s, o]] for s in range(n_syn) for o in range(n_orig)]
        )
        selected, _isolated = select_topk_global(rows, n_syn, cfg)
        want = np.zeros((n_syn, n_orig), dtype=bool)
        for s, o, _score in selected:
            want[int(s), int(o)] = True
        got = topk_oracle(scores, n_syn * cfg.factor, cfg.tau_conf)
        assert np.array_equal(got, want)


def test_stub_faults_counts_and_closes_connections():
    proc, url = start_stub()
    try:
        statuses, replies = [], []
        for i in range(2 * stub.FAULT_EVERY):
            resp = requests.post(
                url + "/v1/chat/completions",
                json={"messages": [
                    {"role": "assistant", "content": f"<START>alpha beta gamma {i}<END>"},
                    {"role": "user", "content": "again"},
                ]},
                timeout=10,
            )
            assert resp.headers["Connection"] == "close"
            statuses.append(resp.status_code)
            if resp.status_code == 200:
                replies.append(resp.json()["choices"][0]["message"]["content"])
        assert [i + 1 for i, s in enumerate(statuses) if s == 503] == [
            stub.FAULT_EVERY, 2 * stub.FAULT_EVERY
        ]
        assert all(r.startswith("<START>") for r in replies)
        assert stub_stats(url) == {"served": 2 * stub.FAULT_EVERY, "faults": 2}
        emb = requests.post(url + "/v1/embeddings", json={"input": ["a b", "c"]}, timeout=10)
        assert [len(d["embedding"]) for d in emb.json()["data"]] == [stub.EMBED_DIM] * 2
    finally:
        stop_stub(proc)
    assert proc.poll() is not None


def test_stub_replies_are_deterministic_and_some_lack_end():
    bodies = [
        {"messages": [{"role": "assistant", "content": f"<START>w{i} x y z<END>"}]}
        for i in range(200)
    ]
    first = [stub.chat_reply(b) for b in bodies]
    assert first == [stub.chat_reply(b) for b in bodies]
    missing = sum(not r.endswith("<END>") for r in first)
    assert 5 <= missing <= 40


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.02)

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    tracer.wrap("m.outer", outer)()
    summary = tracer.summary()
    assert summary["m.leaf"]["calls"] == 2
    assert summary["m.outer"]["s"] >= summary["m.leaf"]["s"] + 0.01
    assert summary["m.outer"]["self_s"] == pytest.approx(
        summary["m.outer"]["s"] - summary["m.leaf"]["s"]
    )
    assert tracer.top_level_s() == pytest.approx(summary["m.outer"]["s"])


def test_install_refuses_a_missing_layer_or_counted_function(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED_MODULES", ("graph", "no_such_layer"))
    with pytest.raises(ModuleNotFoundError):
        tracing.install()
    monkeypatch.setattr(tracing, "TRACED_MODULES", ())
    monkeypatch.setattr(tracing, "HOOKS", {"kernels.no_such_function": None})
    with pytest.raises(LookupError, match="kernels.no_such_function"):
        tracing.install()


def test_per_layer_metrics_name_spans_with_nothing_to_wrap():
    step = {"name": "augment", "wall_s": [1.0]}
    traced = {
        "spans": {"neural.forward": {"s": 2.0, "self_s": 1.0, "calls": 3}},
        "counters": {},
        "wrapped": ["neural.forward", "neural.dropout_mask", "http.post"],
        "steps": [step],
        "top_level_s": 1.0,
        "span_count": 3,
    }
    metrics, gone = run.per_layer_metrics(traced, {"steps": [step]})
    assert metrics["neural.forward.s"]["value"] == 2.0
    assert metrics["neural.dropout_mask.calls"]["value"] == 0  # wrapped, never called
    assert "neural.dropout_mask" not in gone
    assert "kernels.csr_matmul" in gone and "neural.forward" not in gone


def test_traced_criterion_7_call_counts(tmp_path):
    """Exact counts of the acceptance run (5 eval seeds, cells origin, llm,
    llm_C). A span that missed a copy of a function bound by name in
    another module would lower them."""
    toy = ToyE2E()
    fixture = toy.setup(str(tmp_path / "setup"), seed=0)
    cfg = replace(toy.config(fixture, str(tmp_path / "out")), eval_seeds=(0, 1, 2, 3, 4))
    spec = {
        "src": SRC,
        "config": cfg.to_dict(),
        "steps": toy.steps(),
        "trace": True,
        "result": str(tmp_path / "result.json"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), str(tmp_path / "spec.json")],
        check=True, timeout=600,
    )
    result = json.loads((tmp_path / "result.json").read_text())
    assert all(step["error"] is None for step in result["steps"])
    calls = {name: entry["calls"] for name, entry in result["spans"].items()}
    assert calls["kernels.csr_matmul"] == 27_045
    assert calls["neural.dropout_mask"] == 13_500
    assert calls["neural.train_classifier"] == 18
    assert calls["neural.forward"] == 5_419
