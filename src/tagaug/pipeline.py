"""End-to-end orchestration: augment a dataset, retrain/evaluate over the
ablation grid, and run the theory checks. Reports are JSON with sorted
keys; wall-clock numbers live only under "timings" so two runs with the
same config and seed produce byte-identical reports apart from that block.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial

import numpy as np

from . import verify
from . import __version__
from .baselines import VARIANT_BY_MODE, numeric_augment
from .edges import EdgeAssignConfig, train_confidence, wire_nodes
from .embedding import EmbeddingMatrix, EncoderConfig, encode_texts
from .generation import (
    GeneratorConfig,
    VARIANTS,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    rebalance_targets,
)
from .graph import (
    DatasetError,
    LongTailSplit,
    SPLIT_SETTINGS,
    _artifact,
    _ints_below,
    _jsonl_blob,
    _open_atomic,
    graph_stats,
    load_dataset,
    make_longtail_split,
    merge_augmented,
    normalized_adjacency,
    read_source_graph,
    write_dataset,
    write_source_graph,
)
from .metrics import (
    bcr,
    bps,
    build_manifold_index,
    classification_metrics,
    confusion_matrix,
    head_tail_gap,
    icr,
)
from .embedding import class_centroids
from .neural import TrainConfig, confidence_train_defaults, predict, train_classifier, train_jobs
from .schema import check_fields, setting

GRID_CELLS = ("origin", "num", "num_C", "llm", "llm_C")

NUM_MODE_BY_VARIANT = {variant: mode for mode, variant in VARIANT_BY_MODE.items()}

_EDGE_BOUNDS = {f.name: f.metadata for f in fields(EdgeAssignConfig)}


@dataclass
class RunConfig:
    dataset_dir: str
    out_dir: str
    seed: int = setting(within="[0, inf)")
    variant: str = setting("S", choices=VARIANTS)
    knn_k: int = setting(3, within="[1, inf)")
    head_count: int = setting(20, within=SPLIT_SETTINGS["head_count"])
    imbalance_ratio: float = setting(0.1, within=SPLIT_SETTINGS["imbalance_ratio"])
    tail_class_count: int = setting(None, within="[0, inf)")  # None reads meta.json
    val_fraction: float = setting(0.25, within=SPLIT_SETTINGS["val_fraction"])
    edge_strategy: str = setting("confidence", choices=("confidence", "duplicate", "none"))
    edge_factor: int = setting(20, **_EDGE_BOUNDS["factor"])
    tau_conf: float = setting(0.0, **_EDGE_BOUNDS["tau_conf"])
    num_mode: str = setting(None, choices=tuple(VARIANT_BY_MODE))  # None maps the variant
    eval_seeds: tuple = setting((0, 1, 2, 3, 4), within="[0, inf)")
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    classifier: TrainConfig = field(default_factory=TrainConfig)
    confidence: TrainConfig = field(default_factory=confidence_train_defaults)

    def __post_init__(self):
        check_fields(self)
        if not self.eval_seeds:
            raise ValueError("eval_seeds must not be empty")
        if len(set(self.eval_seeds)) < len(self.eval_seeds):
            raise ValueError(f"eval_seeds must not repeat, got {self.eval_seeds}")

    def edge_config(self):
        """The edge budget and threshold as wire_nodes takes them."""
        return EdgeAssignConfig(factor=self.edge_factor, tau_conf=self.tau_conf)

    def to_dict(self):
        return json.loads(json.dumps(asdict(self)))

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data):
        return _from_json(cls, data)


def _from_json(cls, data):
    """cls built from its JSON form: a nested dict becomes the field's
    dataclass, a list its tuple or frozenset. Unknown keys raise TypeError;
    a nested config's ValueError is prefixed with its field name."""
    types = {f.name: f.type for f in fields(cls)}
    values = {}
    for name, value in data.items():
        kind = types.get(name)
        if is_dataclass(kind) and isinstance(value, dict):
            try:
                value = _from_json(kind, value)
            except ValueError as exc:
                raise ValueError(f"{name}.{exc}") from None
        elif kind in (tuple, frozenset) and isinstance(value, list):
            value = kind(value)
        values[name] = value
    return cls(**values)


def write_report(report, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    with _open_atomic(path) as fh:
        fh.write(text)


def load_split(cfg):
    """The dataset in cfg.dataset_dir, its long-tail split under cfg's
    settings, and the tail-class count: cfg's, else meta.json's, else C // 2."""
    graph = load_dataset(cfg.dataset_dir)
    tail_count = cfg.tail_class_count
    if tail_count is None:
        tail_count = graph._meta.get("tail_class_count", max(1, graph.num_classes // 2))
    split = make_longtail_split(
        graph, cfg.head_count, cfg.imbalance_ratio, tail_class_count=tail_count,
        val_fraction=cfg.val_fraction, seed=cfg.seed,
    )
    return graph, split, tail_count


def _split_block(split):
    # vars, not asdict: asdict would deep-copy the 10k-entry index tuples
    return {**vars(split), "tail_classes": sorted(split.tail_classes)}


def _split_counts(split):
    return {
        "train": len(split.train_idx),
        "val": len(split.val_idx),
        "test": len(split.test_idx),
        "tail_classes": sorted(split.tail_classes),
    }


def run_augment(cfg):
    """Algorithm: load, split, encode, schedule twins, generate, encode the
    synthetic texts, assign edges, merge, persist. Returns the report."""
    timings = {}
    t0 = time.perf_counter()
    graph, split, tail_count = load_split(cfg)
    meta = graph._meta
    timings["load_split_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    emb = encode_texts(graph.texts, cfg.encoder)
    timings["encode_s"] = time.perf_counter() - t1

    labels = graph.labels.tolist()
    targets = rebalance_targets(labels, split)
    pairs = find_vicinal_twins(
        split, emb, labels, cfg.knn_k, target_counts=targets, variant=cfg.variant
    )
    dataset_name = meta.get("dataset_name", os.path.basename(os.path.normpath(cfg.dataset_dir)))
    prompt_spec = default_prompt_spec(dataset_name)

    t2 = time.perf_counter()
    os.makedirs(cfg.out_dir, exist_ok=True)
    cache_path = os.path.join(cfg.out_dir, "gen_cache.jsonl")
    nodes, gen_stats = generate_interpolations(
        pairs, cfg.variant, cfg.generator, prompt_spec, graph.texts,
        graph.class_names, cache_path,
    )
    timings["generate_s"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    syn_emb = encode_texts([node.text for node in nodes], cfg.encoder)
    timings["encode_synthetic_s"] = time.perf_counter() - t3

    t4 = time.perf_counter()
    conf = None
    if cfg.edge_strategy == "confidence" and nodes:
        conf = train_confidence(emb, labels, split.train_idx, cfg.confidence)
    edges, edge_summary = wire_nodes(
        syn_emb.vectors, [node.provenance["anchor"] for node in nodes], graph,
        cfg.edge_strategy, emb, conf, cfg.edge_config(),
    )
    timings["edges_s"] = time.perf_counter() - t4

    t5 = time.perf_counter()
    write_artifacts(cfg.out_dir, graph, split, tail_count, nodes, edges, emb, syn_emb)
    timings["write_s"] = time.perf_counter() - t5

    report = {
        "tool": "tagaug",
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "graph_stats": graph_stats(graph, split),
        "split_counts": _split_counts(split),
        "generation": asdict(gen_stats),
        "synthetic_count": len(nodes),
        "edge_assignment": edge_summary,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    write_report(report, os.path.join(cfg.out_dir, "augment_report.json"))
    return report


def write_artifacts(out_dir, graph, split, tail_count, nodes, edges, emb, syn_emb):
    """Persist what augment made: source_graph.npz (graph, which must come
    from load_dataset), the graph merged with the synthetic nodes and their
    wired edges (edges[i] for nodes[i]) with a provenance sidecar under
    out_dir/augmented, embeddings.npz and split.json. A node's provenance
    record adds its id, label and edges, and is "isolated" when it has no
    edge."""
    os.makedirs(out_dir, exist_ok=True)
    write_source_graph(graph, os.path.join(out_dir, "source_graph.npz"))
    augmented = merge_augmented(
        graph, [node.text for node in nodes], [node.label for node in nodes], edges
    )
    provenance = [
        {
            **node.provenance,
            "node_id": graph.node_count + i,
            "label": node.label,
            "isolated": not node_edges,
            "edges": [[t, round(s, 6)] for t, s in node_edges],
        }
        for i, (node, node_edges) in enumerate(zip(nodes, edges))
    ]
    write_dataset(
        augmented, os.path.join(out_dir, "augmented"),
        tail_class_count=tail_count, provenance=provenance,
    )
    with _open_atomic(os.path.join(out_dir, "embeddings.npz"), "wb") as fh:
        np.savez(
            fh,
            original=emb.vectors,
            synthetic=syn_emb.vectors if nodes else np.zeros((0, emb.dim)),
            encoder_id=np.frombuffer(emb.encoder_id.encode("utf-8"), dtype=np.uint8),
        )
    write_report(_split_block(split), os.path.join(out_dir, "split.json"))


def load_artifacts(cfg):
    """Reload what train-eval reads of run_augment's output; no network
    access. Returns the graph, the split, the original embeddings, and the
    llm cells' synthetic (rows, labels, anchors): the graph comes from
    source_graph.npz, refused unless cfg.dataset_dir still holds the
    dataset augment read; the labels and anchor ids from provenance.jsonl,
    the rows from embeddings.npz (row i belongs to record i). No cell reads
    the synthetic texts. Last comes the theory block of verify_report.json,
    None when the out dir holds none. Augment writes split.json last, so
    an out_dir without it raises a DatasetError saying augment has not
    finished there; a missing, damaged or unreadable artifact, or one that
    does not fit the dataset, raises DatasetError naming the file."""
    out = cfg.out_dir
    unfinished = "augment has not finished there, so run augment first"
    with _artifact(out, "split.json", missing=unfinished) as path:
        with open(path, encoding="utf-8") as fh:
            split = _from_json(LongTailSplit, json.load(fh))
    graph = read_source_graph(os.path.join(out, "source_graph.npz"), cfg.dataset_dir)
    fault = _ints_below("index", graph.node_count)(
        {"index": [*split.train_idx, *split.val_idx, *split.test_idx]}
    )
    if fault:
        raise DatasetError(f"split.json: {fault[1]}")
    with _artifact(out, "embeddings.npz") as path, np.load(path) as data:
        original = data["original"]
        synthetic = data["synthetic"]
        emb = EmbeddingMatrix(original, bytes(data["encoder_id"]).decode("utf-8"))
    if len(original) != graph.node_count:
        raise DatasetError(
            f"embeddings.npz has {len(original)} original rows but the dataset has "
            f"{graph.node_count} nodes"
        )
    if synthetic.shape[1:] != original.shape[1:]:
        raise DatasetError(
            f"embeddings.npz has synthetic rows of shape {synthetic.shape[1:]} but "
            f"original rows of shape {original.shape[1:]}"
        )

    augmented = os.path.join(out, "augmented")
    with _artifact(augmented, "provenance.jsonl") as path, open(path, "rb") as fh:
        blob = fh.read()
    records, columns = _jsonl_blob(
        blob, "provenance.jsonl", ("label", "anchor"),
        (_ints_below("label", graph.num_classes), _ints_below("anchor", graph.node_count)),
    )
    if len(records) != len(synthetic):
        raise DatasetError(
            f"embeddings.npz has {len(synthetic)} synthetic rows but "
            f"provenance.jsonl has {len(records)} records"
        )
    row_labels = np.array(columns["label"], dtype=np.int64)
    return graph, split, emb, (synthetic, row_labels, columns["anchor"]), _theory_block(out)


def _theory_block(out_dir):
    """What train-eval reports of the verify_report.json `tagaug verify
    --out` wrote in out_dir, or None when there is none."""
    if not os.path.exists(os.path.join(out_dir, "verify_report.json")):
        return None
    with _artifact(out_dir, "verify_report.json", "run verify again") as path:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        return {
            "all_passed": stored.get("all_passed"),
            "checks": [{"name": c["name"], "passed": c["passed"]} for c in stored["checks"]],
            "seed": stored.get("seed"),
            "tool_version": stored.get("tool_version"),
        }


def _train_eval_cell(graph, original, rows, train_ids, split, cfg):
    """Train the classifier for each eval seed, side by side, in float32 on
    the original embedding rows followed by the cell's synthetic rows;
    per-seed test metrics, in seed order."""
    features = np.vstack([original, rows], dtype=np.float32)
    adjacency = normalized_adjacency(graph, dtype=np.float32)
    adjacency.plan  # built before the jobs share it: cached_property may not lock
    models = train_jobs([
        partial(
            train_classifier, features, graph.labels, train_ids,
            replace(cfg.classifier, seed=seed), kind="gcn", adjacency=adjacency,
        )
        for seed in cfg.eval_seeds
    ])
    test_idx = np.asarray(split.test_idx)
    runs = []
    for model in models:
        pred, _, _ = predict(model, features, adjacency=adjacency)
        conf = confusion_matrix(graph.labels[test_idx], pred[test_idx], graph.num_classes)
        block = classification_metrics(conf)
        block["head_tail_gap"] = head_tail_gap(conf, split.tail_classes)
        block["final_loss"] = model.loss_history[-1]
        runs.append(block)
    return runs


def _mean_std_block(runs):
    keys = ("acc", "bacc", "macro_f1", "gmean", "head_tail_gap", "final_loss")
    out = {}
    for key in keys:
        values = np.array([r[key] for r in runs], dtype=np.float64)
        out[key] = {
            "mean": round(float(values.mean()), 4),
            "std": round(float(values.std(ddof=1)) if len(values) > 1 else 0.0, 4),
        }
    return out


def _boundary_probe(emb, labels, cfg):
    """The MLP probe the boundary block's icr reads, trained in float32 on
    a class-balanced sample of the original rows; labels is their array."""
    counts = np.bincount(labels)
    per_class = counts[counts > 0].min()
    chosen = np.concatenate(
        [np.flatnonzero(labels == cls)[:per_class] for cls in range(len(counts))]
    )
    rows = np.asarray(emb.vectors, dtype=np.float32)
    return train_classifier(rows, labels, chosen, cfg.confidence, kind="mlp")


def _num_synthetic(cfg, emb, labels, split):
    """(rows, labels, anchors) of the synthetic nodes every num cell adds,
    synthesized on the shared pair schedule."""
    mode = cfg.num_mode or NUM_MODE_BY_VARIANT[cfg.variant]
    targets = rebalance_targets(labels, split)
    rows, row_labels, pairs = numeric_augment(
        emb, labels, split, mode, cfg.knn_k, targets, seed=cfg.seed
    )
    return rows, row_labels, [anchor for anchor, _partner in pairs]


def check_grid(grid):
    for cell in grid:
        if cell not in GRID_CELLS:
            raise ValueError(f"unknown grid cell: {cell}")


def run_train_eval(cfg, grid=("origin", "llm", "llm_C")):
    """Train/evaluate the requested ablation cells on the shared test mask.

    Each non-origin cell adds synthetic nodes to the origin graph: llm
    cells read the persisted augmented artifacts, num cells synthesize
    embedding rows on the shared pair schedule. Cells ending in _C use
    confidence-assigned edges, the others duplicate the anchor's edges.
    The boundary probe and the confidence net train side by side, and so
    do each cell's eval seeds (train_jobs).
    """
    check_grid(grid)
    timings = {}
    t0 = time.perf_counter()
    graph, split, emb, llm, theory = load_artifacts(cfg)
    labels = graph.labels
    augmented = set(grid) - {"origin"}
    # Only the boundary block of a non-origin cell reads these.
    index = build_manifold_index(emb.vectors, labels) if augmented else None
    centroids = class_centroids(emb, labels) if augmented else None
    # num and num_C add the same rows, so they are synthesized once.
    num = _num_synthetic(cfg, emb, labels, split) if {"num", "num_C"} & set(grid) else None
    for cell in grid:
        if cell != "origin" and not len((num if cell.startswith("num") else llm)[0]):
            raise DatasetError(f"cell {cell}: augment made no synthetic nodes to add")
    timings["load_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    jobs = {}
    if augmented:
        jobs["probe"] = partial(_boundary_probe, emb, labels, cfg)
    if any(cell.endswith("_C") for cell in grid):
        jobs["conf"] = partial(train_confidence, emb, labels, split.train_idx, cfg.confidence)
    models = dict(zip(jobs, train_jobs(list(jobs.values()))))
    probe, conf_net = models.get("probe"), models.get("conf")
    timings["models_s"] = time.perf_counter() - t1

    cells_report = {}
    for cell in grid:
        t_cell = time.perf_counter()
        cell_graph, rows, boundary = graph, emb.vectors[:0], None  # origin adds no rows
        train_ids = np.asarray(split.train_idx)
        if cell != "origin":
            rows, row_labels, anchors = num if cell.startswith("num") else llm
            strategy = "confidence" if cell.endswith("_C") else "duplicate"
            edges, _summary = wire_nodes(
                rows, anchors, graph, strategy, emb, conf_net, cfg.edge_config()
            )
            # No cell reads the synthetic texts, so the merged nodes have none.
            cell_graph = merge_augmented(graph, [""] * len(rows), row_labels, edges)
            train_ids = np.concatenate(
                [train_ids, np.arange(graph.node_count, cell_graph.node_count)]
            )
            boundary = {
                "bcr": round(bcr(rows, row_labels, index, k=5), 4),
                "bps": round(bps(rows, row_labels, centroids), 4),
                "icr": round(icr(rows, row_labels, probe), 4),
            }

        runs = _train_eval_cell(cell_graph, emb.vectors, rows, train_ids, split, cfg)
        cells_report[cell] = {
            "metrics": _mean_std_block(runs),
            "per_seed": [
                {k: round(v, 4) for k, v in r.items() if k != "zero_support_classes"}
                for r in runs
            ],
            "boundary": boundary,
            "node_count": cell_graph.node_count,
            "edge_count": len(cell_graph.edges),
        }
        timings[f"cell_{cell}_s"] = time.perf_counter() - t_cell

    report = {
        "tool": "tagaug",
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "eval_seeds": list(cfg.eval_seeds),
        "split_counts": _split_counts(split),
        "cells": cells_report,
        "theory_checks": theory,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    write_report(report, os.path.join(cfg.out_dir, "train_eval_report.json"))
    return report


def run_verify(seed=0, out_dir=None):
    """Run the theory checks; nonzero exit is the caller's duty on failure."""
    t0 = time.perf_counter()
    report = verify.run_all_checks(seed=seed)
    report["tool"] = "tagaug"
    report["tool_version"] = __version__
    report["seed"] = seed
    report["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    if out_dir:
        write_report(report, os.path.join(out_dir, "verify_report.json"))
    return report
