"""Acceptance gate: ten runnable criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
criterion is offline (mock generator + hashing encoder + local stubs).
"""

import json
import shutil
import time

import numpy as np
import pytest

from tagaug.baselines import numeric_augment, smote_interpolate
from tagaug.edges import EdgeAssignConfig, assign_edges, select_topk_global, train_confidence
from tagaug.embedding import EmbeddingMatrix, EncoderConfig, encode_hashing, encode_remote, knn_same_class
from tagaug.fixtures import make_toy_tag
from tagaug.generation import (
    GeneratorConfig,
    RemoteChatGenerator,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    rebalance_targets,
)
from tagaug.graph import LongTailSplit, make_longtail_split, write_dataset
from tagaug.metrics import (
    bcr,
    bps,
    build_manifold_index,
    classification_metrics,
    dist_to_manifold,
    icr,
)
from tagaug.embedding import class_centroids
from tagaug.neural import TrainConfig, train_classifier, predict
from tagaug.pipeline import RunConfig, run_augment, run_train_eval
from tagaug.verify import (
    contraction_check,
    gradient_fidelity_check,
    isolation_check,
    margin_bound_check,
)

from test_baselines import convex_hull_2d, in_hull_2d
from test_wire import StubHandler


def emit(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_gradient_fidelity():
    start = time.monotonic()
    errors = []
    for seed in range(5):
        out = gradient_fidelity_check(seed=seed)
        errors.extend([out["mlp_max_rel_error"], out["gcn_max_rel_error"]])
    elapsed = time.monotonic() - start
    emit(
        1,
        "gradient-fidelity",
        max(errors) <= 1e-4 and elapsed < 10.0,
        f"max_rel_error={max(errors):.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_isolation_theorem():
    out = isolation_check(trials=100, seed=0)
    emit(
        2,
        "isolation-closed-form",
        out["passed"],
        f"max_deviation={out['max_deviation']:.2e} over 100 trials",
    )


def test_criterion_3_contraction():
    out = contraction_check(trials=1000, seed=0)
    emit(
        3,
        "contraction-inequality",
        out["passed"],
        f"violations={out['violations']}/1000, worst_margin={out['worst_margin']:.2e}",
    )


def test_criterion_4_margin_bound():
    out = margin_bound_check(trials=1000, seed=0)
    emit(
        4,
        "margin-lower-bound",
        out["passed"],
        f"failures={out['failures']}/1000, corner_exact={out['bcr_zero_corner_exact']}",
    )


def _oracle_knn(vectors, labels, anchor, k):
    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return float(u @ v / (nu * nv)) if nu and nv else 0.0

    scored = sorted(
        (-cos(vectors[anchor], vectors[j]), j)
        for j in range(len(labels))
        if j != anchor and labels[j] == labels[anchor]
    )
    return [j for _s, j in scored[:k]]


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(5)
    checks = 0

    for _ in range(100):
        n = int(rng.integers(6, 50))
        vectors = rng.normal(size=(n, 4))
        labels = list(rng.integers(3, size=n))
        anchor = int(rng.integers(n))
        k = int(rng.integers(1, 6))
        emb = EmbeddingMatrix(vectors=vectors, encoder_id="t")
        assert knn_same_class(anchor, k, emb, labels, list(range(n))) == _oracle_knn(
            vectors, labels, anchor, k
        )
    checks += 1

    for _ in range(100):
        n_syn = int(rng.integers(1, 6))
        rows = [
            [s, o, float(rng.normal())]
            for s in range(n_syn)
            for o in range(int(rng.integers(1, 9)))
        ]
        cfg = EdgeAssignConfig(factor=int(rng.integers(1, 4)), tau_conf=float(rng.uniform(0, 0.5)))
        selected, isolated = select_topk_global(np.array(rows), n_syn, cfg)
        keep = sorted(
            (r for r in rows if r[2] >= cfg.tau_conf),
            key=lambda r: (-r[2], r[0], r[1]),
        )[: n_syn * cfg.factor]
        assert [list(r) for r in selected] == keep
        assert isolated == [
            i for i in range(n_syn) if i not in {int(r[0]) for r in keep}
        ]
    checks += 1

    for _ in range(100):
        conf = rng.integers(0, 10, size=(3, 3)) + np.eye(3, dtype=int)
        got = classification_metrics(conf)
        support = conf.sum(axis=1)
        predicted = conf.sum(axis=0)
        recalls = [conf[c, c] / support[c] for c in range(3)]
        precisions = [conf[c, c] / predicted[c] if predicted[c] else 0.0 for c in range(3)]
        f1s = [
            2 * p * r / (p + r) if p + r else 0.0 for p, r in zip(precisions, recalls)
        ]
        assert got["acc"] == pytest.approx(np.trace(conf) / conf.sum())
        assert got["bacc"] == pytest.approx(np.mean(recalls))
        assert got["macro_f1"] == pytest.approx(np.mean(f1s))
        assert got["gmean"] == pytest.approx(np.prod(recalls) ** (1 / 3))
    checks += 1

    for _ in range(100):
        ref = rng.normal(size=(int(rng.integers(6, 30)), 3))
        ref_labels = list(rng.integers(3, size=len(ref)))
        ref_labels[:3] = [0, 1, 2]
        index = build_manifold_index(ref, ref_labels)
        samples = rng.normal(size=(int(rng.integers(2, 20)), 3))
        sample_labels = rng.integers(3, size=len(samples))
        k = int(rng.integers(1, 6))
        got = bcr(samples, sample_labels, index, k)
        rows, labs = index.all_points
        boundary = 0
        for row, own in zip(samples, sample_labels):
            order = sorted(range(len(rows)), key=lambda i: (np.linalg.norm(row - rows[i]), i))
            votes = {}
            for i in order[:k]:
                votes[labs[i]] = votes.get(labs[i], 0) + 1
            best = max(votes.values())
            winners = [lab for lab, v in votes.items() if v == best]
            boundary += len(winners) > 1 or winners[0] != own
        assert got == pytest.approx(boundary / len(samples))
    checks += 1

    for _ in range(100):
        rows = rng.normal(size=(12, 3))
        labels = list(rng.integers(3, size=12))
        labels[:3] = [0, 1, 2]
        cents = class_centroids(EmbeddingMatrix(vectors=rows, encoder_id="t"), labels)
        samples = rng.normal(size=(10, 3))
        sample_labels = rng.integers(3, size=10)
        got = bps(samples, sample_labels, cents)
        scores = []
        for row, own in zip(samples, sample_labels):
            d_in = np.linalg.norm(row - cents.by_class[int(own)])
            d_out = min(
                np.linalg.norm(row - c) for cls, c in cents.by_class.items() if cls != own
            )
            scores.append(d_in / d_out)
        assert got == pytest.approx(np.mean(scores), abs=1e-12)
    checks += 1

    for _ in range(100):
        pts = rng.normal(size=(int(rng.integers(2, 50)), 4))
        index = build_manifold_index(pts, [0] * len(pts))
        x = rng.normal(size=4)
        oracle = min(np.linalg.norm(x - p) for p in pts)
        assert dist_to_manifold(x, index, 0) == pytest.approx(oracle, abs=1e-12)
    checks += 1

    emit(5, "oracle-equivalence", checks == 6, "6 operations x 100 instances")


def test_criterion_6_baseline_geometry():
    rng = np.random.default_rng(6)
    collinear = 0
    for _ in range(100):
        x_i, x_k = rng.normal(size=5), rng.normal(size=5)
        lam = float(rng.uniform())
        x_new = smote_interpolate(x_i, x_k, lam)
        lhs = np.linalg.norm(x_new - x_i) + np.linalg.norm(x_new - x_k)
        collinear += abs(lhs - np.linalg.norm(x_i - x_k)) <= 1e-9

    hull_ok = True
    rows2d = np.vstack(
        [rng.normal(size=(8, 2)) + [3.0, 0.0], rng.normal(size=(8, 2)) - [3.0, 0.0]]
    )
    labels2d = [0] * 8 + [1] * 8
    split = LongTailSplit(
        train_idx=tuple(range(16)), val_idx=(), test_idx=(),
        tail_classes=frozenset({0}), head_count=9, imbalance_ratio=0.1,
    )
    emb2d = EmbeddingMatrix(vectors=rows2d, encoder_id="t")
    for mode in ("oversample", "smote", "mixup"):
        rows, out_labels, _ = numeric_augment(emb2d, labels2d, split, mode, 3, {0: 6}, seed=3)
        hull_all = convex_hull_2d(rows2d)
        for row, lab in zip(rows, out_labels):
            if mode in ("oversample", "smote"):
                members = [rows2d[i] for i in range(16) if labels2d[i] == lab]
                hull_ok &= in_hull_2d(row, convex_hull_2d(members))
            else:
                hull_ok &= in_hull_2d(row, hull_all)

    base = rng.normal(size=(30, 4))
    blob_labels = np.array([0] * 15 + [1] * 15)
    base[:15] += 3.0
    probe = train_classifier(
        base, blob_labels, np.arange(30),
        TrainConfig(epochs=150, learning_rate=0.01, dropout=0.0, hidden_dims=(16,), seed=0),
        kind="mlp",
    )
    pred, _, _ = predict(probe, base)
    correct = np.flatnonzero(pred == blob_labels)
    dup_rows = np.repeat(base[correct], 2, axis=0)
    dup_labels = np.repeat(blob_labels[correct], 2)
    icr_value = icr(dup_rows, dup_labels, probe)

    emit(
        6,
        "baseline-geometry",
        collinear == 100 and hull_ok and icr_value == 1.0,
        f"collinear={collinear}/100, hull_ok={hull_ok}, oversample_icr={icr_value}",
    )


@pytest.fixture(scope="module")
def acceptance_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data_dir = root / "data"
    graph = make_toy_tag(seed=2)  # 4 classes, 2 tail
    write_dataset(graph, data_dir, tail_class_count=2)
    return root, data_dir, graph


def acceptance_config(data_dir, out_dir, eval_seeds=(0, 1, 2, 3, 4)):
    return RunConfig(
        dataset_dir=str(data_dir),
        out_dir=str(out_dir),
        seed=4,
        variant="S",
        knn_k=3,
        head_count=20,
        imbalance_ratio=0.1,
        edge_factor=8,
        tau_conf=0.0,
        eval_seeds=tuple(eval_seeds),
        encoder=EncoderConfig(kind="hashing", dim=256),
        generator=GeneratorConfig(kind="mock", seed=0),
        classifier=TrainConfig(
            epochs=300, learning_rate=0.01, dropout=0.5, hidden_dims=(64, 64), seed=0
        ),
        confidence=TrainConfig(
            epochs=300, learning_rate=0.001, dropout=0.0, hidden_dims=(256,), seed=0
        ),
    )


def test_criterion_7_directional_end_to_end(acceptance_workspace):
    root, data_dir, _graph = acceptance_workspace
    start = time.monotonic()
    cfg = acceptance_config(data_dir, root / "run7")
    run_augment(cfg)
    report = run_train_eval(cfg, grid=("origin", "llm", "llm_C"))
    f1 = {
        cell: report["cells"][cell]["metrics"]["macro_f1"]["mean"]
        for cell in ("origin", "llm", "llm_C")
    }
    elapsed = time.monotonic() - start
    ordered = f1["llm_C"] >= f1["llm"] >= f1["origin"]
    big_gain = f1["llm_C"] - f1["origin"] >= 0.03
    emit(
        7,
        "directional-end-to-end",
        ordered and big_gain and elapsed < 120.0,
        f"origin={f1['origin']:.4f} llm={f1['llm']:.4f} llm_C={f1['llm_C']:.4f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_isolation_budget_trend(acceptance_workspace):
    root, data_dir, graph = acceptance_workspace
    labels = list(graph.labels)
    split = make_longtail_split(
        graph, head_count=20, imbalance_ratio=0.1, tail_class_count=2, seed=4
    )
    emb = encode_hashing(graph.texts, 256)
    pairs = find_vicinal_twins(split, emb, labels, 3, rebalance_targets(labels, split), "S")
    nodes, _ = generate_interpolations(
        pairs, "S", GeneratorConfig(kind="mock", seed=0), default_prompt_spec("toy"),
        graph.texts, graph.class_names, root / "crit8_cache.jsonl",
    )
    syn = encode_hashing([n.text for n in nodes], 256)
    for node, row in zip(nodes, syn.vectors):
        node.embedding = row
    conf = train_confidence(
        emb, labels, split.train_idx,
        TrainConfig(epochs=300, learning_rate=0.001, dropout=0.0, hidden_dims=(256,), seed=0),
    )
    counts = []
    for factor in (1, 4, 16, 64):
        _, summary = assign_edges(
            nodes, graph, emb, conf, EdgeAssignConfig(factor=factor, tau_conf=0.3)
        )
        counts.append(summary["isolated"])
    emit(
        8,
        "isolation-vs-budget",
        counts == sorted(counts, reverse=True),
        f"isolated at n=1,4,16,64: {counts}",
    )


def strip_timings(path):
    report = json.loads(path.read_text())
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def test_criterion_9_determinism(acceptance_workspace):
    root, data_dir, _graph = acceptance_workspace
    out_dir = root / "run9"
    snapshots = []
    for _ in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        cfg = acceptance_config(data_dir, out_dir, eval_seeds=(0, 1))
        run_augment(cfg)
        run_train_eval(cfg, grid=("origin", "llm_C"))
        snapshots.append(
            (
                strip_timings(out_dir / "augment_report.json"),
                strip_timings(out_dir / "train_eval_report.json"),
                (out_dir / "augmented" / "nodes.jsonl").read_bytes(),
                (out_dir / "augmented" / "edges.jsonl").read_bytes(),
            )
        )
    emit(
        9,
        "determinism",
        snapshots[0] == snapshots[1],
        "augment + train-eval reports byte-identical modulo timings",
    )


def test_criterion_10_wire_protocol():
    import threading
    from http.server import ThreadingHTTPServer

    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.state = {
        "requests": [],
        "fail_remaining": 0,
        "embed_fn": lambda text, i: [float(len(text)), 1.0],
        "chat_fn": lambda body: "<START>wire test<END>",
    }
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        enc_cfg = EncoderConfig(
            kind="remote", endpoint=base, model="emb", batch_size=2,
            retry_count=3, retry_backoff=0.01,
        )
        emb = encode_remote(["x", "yy", "zzz"], enc_cfg)
        reqs = [r for r in server.state["requests"] if r["path"] == "/v1/embeddings"]
        emb_ok = (
            len(reqs) == 2
            and all(set(r["body"].keys()) == {"model", "input"} for r in reqs)
            # batches go out concurrently, so they may arrive in either order
            and sorted(r["body"]["input"] for r in reqs) == [["x", "yy"], ["zzz"]]
            and emb.vectors.shape == (3, 2)
            and np.all(np.diff(emb.vectors[:, 0]) > 0)
        )

        server.state["requests"].clear()
        server.state["fail_remaining"] = 2
        gen_cfg = GeneratorConfig(
            kind="remote", endpoint=base, model="gen", temperature=0.5,
            max_tokens=64, retry_count=3, retry_backoff=0.01,
        )
        messages = [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]
        out = RemoteChatGenerator(gen_cfg).generate(messages)
        chat_reqs = [
            r for r in server.state["requests"] if r["path"] == "/v1/chat/completions"
        ]
        chat_ok = (
            out == "<START>wire test<END>"
            and len(chat_reqs) == 3  # two 500s then success
            and set(chat_reqs[-1]["body"].keys())
            == {"model", "messages", "temperature", "max_tokens"}
            and chat_reqs[-1]["body"]["messages"] == messages
        )
    finally:
        server.shutdown()
    emit(
        10,
        "wire-protocol",
        emb_ok and chat_ok,
        "request shapes, batch order, and retries verified against stub",
    )
