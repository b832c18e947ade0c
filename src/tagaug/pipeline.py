"""End-to-end orchestration: augment a dataset, retrain/evaluate over the
ablation grid, and run the theory checks. Reports are JSON with sorted
keys; wall-clock numbers live only under "timings" so two runs with the
same config and seed produce byte-identical reports apart from that block.
"""

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import verify
from . import __version__
from .baselines import VARIANT_BY_MODE, numeric_augment
from .edges import EdgeAssignConfig, train_confidence, wire_nodes
from .embedding import EmbeddingMatrix, EncoderConfig, encode_texts
from .generation import (
    GeneratorConfig,
    SyntheticNode,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    rebalance_targets,
)
from .graph import (
    LongTailSplit,
    _open_atomic,
    graph_stats,
    load_dataset,
    make_longtail_split,
    merge_augmented,
    normalized_adjacency,
    write_dataset,
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
from .neural import TrainConfig, confidence_train_defaults, predict, train_classifier

GRID_CELLS = ("origin", "num", "num_C", "llm", "llm_C")

NUM_MODE_BY_VARIANT = {variant: mode for mode, variant in VARIANT_BY_MODE.items()}


@dataclass
class RunConfig:
    dataset_dir: str
    out_dir: str
    seed: int
    variant: str = "S"
    knn_k: int = 3
    head_count: int = 20
    imbalance_ratio: float = 0.1
    tail_class_count: int = None  # None reads meta.json
    val_fraction: float = 0.25
    edge_strategy: str = "confidence"  # confidence | duplicate | none
    edge_factor: int = 20
    tau_conf: float = 0.0
    num_mode: str = None  # None maps the variant: O/S/M -> oversample/smote/mixup
    eval_seeds: tuple = (0, 1, 2, 3, 4)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    classifier: TrainConfig = field(default_factory=TrainConfig)
    confidence: TrainConfig = field(default_factory=confidence_train_defaults)

    def __post_init__(self):
        if self.variant not in ("O", "S", "M"):
            raise ValueError(f"variant must be O, S, or M, got {self.variant!r}")
        if self.num_mode is not None and self.num_mode not in VARIANT_BY_MODE:
            raise ValueError(
                f"num_mode must be None or one of {sorted(VARIANT_BY_MODE)}, "
                f"got {self.num_mode!r}"
            )
        if self.edge_strategy not in ("confidence", "duplicate", "none"):
            raise ValueError(f"unknown edge strategy: {self.edge_strategy!r}")

    def to_dict(self):
        data = asdict(self)
        data["eval_seeds"] = list(self.eval_seeds)
        for key in ("encoder", "generator", "classifier", "confidence"):
            nested = data[key]
            if "hidden_dims" in nested:
                nested["hidden_dims"] = list(nested["hidden_dims"])
        return data

    def digest(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data):
        data = dict(data)
        for key, sub_cls in (
            ("encoder", EncoderConfig),
            ("generator", GeneratorConfig),
            ("classifier", TrainConfig),
            ("confidence", TrainConfig),
        ):
            if key in data and isinstance(data[key], dict):
                sub = dict(data[key])
                if "hidden_dims" in sub:
                    sub["hidden_dims"] = tuple(sub["hidden_dims"])
                data[key] = sub_cls(**sub)
        if "eval_seeds" in data:
            data["eval_seeds"] = tuple(data["eval_seeds"])
        return cls(**data)


def write_report(report, path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with _open_atomic(path) as fh:
        json.dump(report, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def _read_meta(dataset_dir):
    with open(os.path.join(dataset_dir, "meta.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _resolve_tail_count(tail_class_count, meta, graph):
    """The tail-class count: the given value, else meta.json's, else C // 2."""
    if tail_class_count is not None:
        return tail_class_count
    if "tail_class_count" in meta:
        return meta["tail_class_count"]
    return max(1, graph.num_classes // 2)


def _split_block(split):
    return {
        "train_idx": list(split.train_idx),
        "val_idx": list(split.val_idx),
        "test_idx": list(split.test_idx),
        "tail_classes": sorted(split.tail_classes),
        "head_count": split.head_count,
        "imbalance_ratio": split.imbalance_ratio,
    }


def _split_counts(split):
    return {
        "train": len(split.train_idx),
        "val": len(split.val_idx),
        "test": len(split.test_idx),
        "tail_classes": sorted(split.tail_classes),
    }


def _load_split(path):
    with open(path, encoding="utf-8") as fh:
        block = json.load(fh)
    return LongTailSplit(
        train_idx=tuple(block["train_idx"]),
        val_idx=tuple(block["val_idx"]),
        test_idx=tuple(block["test_idx"]),
        tail_classes=frozenset(block["tail_classes"]),
        head_count=block["head_count"],
        imbalance_ratio=block["imbalance_ratio"],
    )


def run_augment(cfg):
    """Algorithm: load, split, encode, schedule twins, generate, encode the
    synthetic texts, assign edges, merge, persist. Returns the report."""
    timings = {}
    t0 = time.perf_counter()
    graph = load_dataset(cfg.dataset_dir)
    meta = _read_meta(cfg.dataset_dir)
    tail_count = _resolve_tail_count(cfg.tail_class_count, meta, graph)
    split = make_longtail_split(
        graph,
        head_count=cfg.head_count,
        imbalance_ratio=cfg.imbalance_ratio,
        tail_class_count=tail_count,
        val_fraction=cfg.val_fraction,
        seed=cfg.seed,
    )
    timings["load_split_s"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    emb = encode_texts(graph.texts, cfg.encoder)
    timings["encode_s"] = time.perf_counter() - t1

    labels = list(graph.labels)
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
    for node, row in zip(nodes, syn_emb.vectors):
        node.embedding = row
    timings["encode_synthetic_s"] = time.perf_counter() - t3

    t4 = time.perf_counter()
    conf = None
    if cfg.edge_strategy == "confidence" and nodes:
        conf = train_confidence(emb, labels, split.train_idx, cfg.confidence)
    nodes, edge_summary = wire_nodes(
        nodes, graph, cfg.edge_strategy, emb, conf,
        EdgeAssignConfig(factor=cfg.edge_factor, tau_conf=cfg.tau_conf),
    )
    timings["edges_s"] = time.perf_counter() - t4

    augmented = merge_augmented(graph, nodes)
    augmented_dir = os.path.join(cfg.out_dir, "augmented")
    provenance = []
    for i, node in enumerate(nodes):
        rec = dict(node.provenance)
        rec.update(
            {
                "node_id": graph.node_count + i,
                "label": node.label,
                "isolated": node.isolated,
                "edges": [[t, round(s, 6)] for t, s in node.edges],
            }
        )
        provenance.append(rec)
    write_dataset(augmented, augmented_dir, tail_class_count=tail_count, provenance=provenance)
    with _open_atomic(os.path.join(cfg.out_dir, "embeddings.npz"), "wb") as fh:
        np.savez(
            fh,
            original=emb.vectors,
            synthetic=syn_emb.vectors if nodes else np.zeros((0, emb.dim)),
            encoder_id=np.frombuffer(emb.encoder_id.encode("utf-8"), dtype=np.uint8),
        )
    write_report(_split_block(split), os.path.join(cfg.out_dir, "split.json"))

    report = {
        "tool": "tagaug",
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "seed": cfg.seed,
        "graph_stats": graph_stats(graph, split).as_dict(),
        "split_counts": _split_counts(split),
        "generation": gen_stats.as_dict(),
        "synthetic_count": len(nodes),
        "edge_assignment": edge_summary,
        "timings": {k: round(v, 6) for k, v in timings.items()},
    }
    write_report(report, os.path.join(cfg.out_dir, "augment_report.json"))
    return report


def _load_artifacts(cfg):
    """Reload what train-eval reads of run_augment's output; no network
    access. The llm nodes come from provenance.jsonl and the synthetic
    embedding rows; no cell reads their text."""
    graph = load_dataset(cfg.dataset_dir)
    split = _load_split(os.path.join(cfg.out_dir, "split.json"))
    with np.load(os.path.join(cfg.out_dir, "embeddings.npz")) as data:
        original = data["original"]
        synthetic = data["synthetic"]
        encoder_id = bytes(data["encoder_id"]).decode("utf-8")
    emb = EmbeddingMatrix(vectors=original, encoder_id=encoder_id)

    nodes = []
    prov_path = os.path.join(cfg.out_dir, "augmented", "provenance.jsonl")
    if os.path.exists(prov_path):
        with open(prov_path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = json.loads(line)
                    nodes.append(
                        SyntheticNode(
                            text="",
                            label=rec["label"],
                            provenance=rec,
                            embedding=synthetic[rec["node_id"] - graph.node_count],
                        )
                    )
    return graph, split, emb, synthetic, nodes


def _train_eval_cell(graph, features, labels, train_ids, split, cfg, class_count):
    """Train the classifier over the eval seeds; per-seed test metrics."""
    adjacency = normalized_adjacency(graph)
    runs = []
    for seed in cfg.eval_seeds:
        train_cfg = replace(cfg.classifier, seed=seed)
        model = train_classifier(
            features, labels, train_ids, train_cfg, kind="gcn", adjacency=adjacency
        )
        pred, _, _ = predict(model, features, adjacency=adjacency)
        test_idx = np.asarray(split.test_idx)
        conf = confusion_matrix(
            np.asarray(labels)[test_idx], pred[test_idx], class_count
        )
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


def _boundary_block(rows, row_labels, emb, labels, probe):
    if len(rows) == 0:
        return None
    index = build_manifold_index(emb.vectors, labels)
    centroids = class_centroids(emb, labels)
    return {
        "bcr": round(bcr(rows, row_labels, index, k=5), 4),
        "bps": round(bps(rows, row_labels, centroids), 4),
        "icr": round(icr(rows, row_labels, probe), 4),
    }


def _balanced_probe(emb, labels, cfg):
    """MLP probe trained on a class-balanced sample of the original nodes."""
    labels = np.asarray(labels, dtype=np.int64)
    counts = np.bincount(labels)
    per_class = counts[counts > 0].min()
    chosen = []
    for cls in range(len(counts)):
        members = np.flatnonzero(labels == cls)[:per_class]
        chosen.extend(int(i) for i in members)
    return train_classifier(
        emb.vectors, labels, np.array(chosen), cfg.confidence, kind="mlp"
    )


def run_train_eval(cfg, grid=("origin", "llm", "llm_C")):
    """Train/evaluate the requested ablation cells on the shared test mask.

    llm cells read the persisted augmented artifacts; num cells synthesize
    embedding rows on the shared pair schedule. Cells ending in _C use
    confidence-assigned edges, the others duplicate the anchor's edges.
    """
    for cell in grid:
        if cell not in GRID_CELLS:
            raise ValueError(f"unknown grid cell: {cell}")
    timings = {}
    t0 = time.perf_counter()
    graph, split, emb, syn_rows, nodes = _load_artifacts(cfg)
    labels = list(graph.labels)
    class_count = graph.num_classes
    # Only the boundary block of a non-origin cell reads the probe.
    probe = _balanced_probe(emb, labels, cfg) if set(grid) - {"origin"} else None
    timings["load_s"] = time.perf_counter() - t0

    needs_conf = any(cell.endswith("_C") for cell in grid)
    conf_net = None
    if needs_conf:
        conf_net = train_confidence(emb, labels, split.train_idx, cfg.confidence)

    cells_report = {}
    for cell in grid:
        t_cell = time.perf_counter()
        if cell == "origin":
            cell_graph = graph
            features = emb.vectors
            cell_labels = labels
            train_ids = np.asarray(split.train_idx)
            boundary = None
        else:
            if cell.startswith("num"):
                mode = cfg.num_mode or NUM_MODE_BY_VARIANT[cfg.variant]
                targets = rebalance_targets(labels, split)
                rows, row_labels, pairs = numeric_augment(
                    emb, labels, split, mode, cfg.knn_k, targets, seed=cfg.seed
                )
                cell_nodes = [
                    SyntheticNode(
                        text="",
                        label=int(lab),
                        provenance={"anchor": int(anchor), "partner": int(partner)},
                        embedding=row,
                    )
                    for row, lab, (anchor, partner) in zip(rows, row_labels, pairs)
                ]
            else:
                if not nodes:
                    raise FileNotFoundError(
                        f"cell {cell}: no augmented artifacts under {cfg.out_dir}"
                    )
                rows = syn_rows
                row_labels = np.array([n.label for n in nodes], dtype=np.int64)
                cell_nodes = nodes
            if not cell_nodes:
                raise ValueError(f"cell {cell}: nothing to augment with")

            strategy = "confidence" if cell.endswith("_C") else "duplicate"
            cell_nodes, _summary = wire_nodes(
                cell_nodes, graph, strategy, emb, conf_net,
                EdgeAssignConfig(factor=cfg.edge_factor, tau_conf=cfg.tau_conf),
            )
            cell_graph = merge_augmented(graph, cell_nodes)
            features = np.vstack([emb.vectors, rows])
            cell_labels = list(cell_graph.labels)
            train_ids = np.concatenate(
                [
                    np.asarray(split.train_idx),
                    np.arange(graph.node_count, cell_graph.node_count),
                ]
            )
            boundary = _boundary_block(rows, row_labels, emb, labels, probe)

        runs = _train_eval_cell(
            cell_graph, features, cell_labels, train_ids, split, cfg, class_count
        )
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

    theory_block = None
    verify_path = os.path.join(cfg.out_dir, "verify_report.json")
    if os.path.exists(verify_path):
        with open(verify_path, encoding="utf-8") as fh:
            stored = json.load(fh)
        theory_block = {
            "all_passed": stored.get("all_passed"),
            "checks": [
                {"name": c["name"], "passed": c["passed"]} for c in stored["checks"]
            ],
        }

    report = {
        "tool": "tagaug",
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "config_digest": cfg.digest(),
        "eval_seeds": list(cfg.eval_seeds),
        "split_counts": _split_counts(split),
        "cells": cells_report,
        "theory_checks": theory_block,
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
