import json
import os
from dataclasses import replace

import numpy as np
import pytest

from tagaug.cli import main
from tagaug.graph import make_longtail_split, write_dataset
from tagaug.pipeline import RunConfig, run_augment, run_train_eval, write_report
from tagaug.embedding import EncoderConfig
from tagaug.generation import GeneratorConfig
from tagaug.neural import TrainConfig


def fast_config(dataset_dir, out_dir, seed=4):
    return {
        "dataset_dir": str(dataset_dir),
        "out_dir": str(out_dir),
        "seed": seed,
        "variant": "S",
        "imbalance_ratio": 0.1,
        "edge_factor": 8,
        "eval_seeds": [0, 1],
        "encoder": {"kind": "hashing", "dim": 128},
        "generator": {"kind": "mock", "seed": 0},
        "classifier": {
            "epochs": 60, "learning_rate": 0.01, "dropout": 0.5,
            "hidden_dims": [32, 32], "seed": 0,
        },
        "confidence": {
            "epochs": 60, "learning_rate": 0.001, "dropout": 0.0,
            "hidden_dims": [64], "seed": 0,
        },
    }


class TestRunConfig:
    def test_dict_round_trip(self, tmp_path):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        cfg = RunConfig.from_dict(data)
        assert isinstance(cfg.encoder, EncoderConfig)
        assert isinstance(cfg.generator, GeneratorConfig)
        assert isinstance(cfg.classifier, TrainConfig)
        assert cfg.classifier.hidden_dims == (32, 32)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_validation(self, tmp_path):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        data["variant"] = "Q"
        with pytest.raises(ValueError, match="variant"):
            RunConfig.from_dict(data)

    def test_num_mode_checked_when_built(self, tmp_path):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        for mode in (None, "oversample", "smote", "mixup"):
            assert RunConfig.from_dict({**data, "num_mode": mode}).num_mode == mode
        with pytest.raises(ValueError, match="num_mode"):
            RunConfig.from_dict({**data, "num_mode": "jitter"})


class TestAugmentPipeline:
    def test_augment_writes_artifacts(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        report = run_augment(cfg)
        out = tmp_path / "run"
        for name in (
            "augment_report.json",
            "gen_cache.jsonl",
            "split.json",
            "embeddings.npz",
        ):
            assert (out / name).exists()
        for name in ("nodes.jsonl", "edges.jsonl", "meta.json", "provenance.jsonl"):
            assert (out / "augmented" / name).exists()
        assert report["synthetic_count"] == 36
        assert report["generation"]["pairs_total"] == 36

    def test_edge_strategy_none_isolates_everything(self, tmp_path, toy_dataset_dir):
        data = fast_config(toy_dataset_dir, tmp_path / "run")
        data["edge_strategy"] = "none"
        report = run_augment(RunConfig.from_dict(data))
        assert report["edge_assignment"]["isolated"] == report["synthetic_count"]
        prov = (tmp_path / "run" / "augmented" / "provenance.jsonl").read_text()
        assert all(json.loads(l)["isolated"] for l in prov.splitlines() if l.strip())

    def test_duplicate_strategy_copies_anchor_edges(self, tmp_path, toy_graph):
        # Cut every edge of one tail-class training node (an anchor; the
        # split ignores edges), so both degree-0 and connected anchors occur.
        split = make_longtail_split(
            toy_graph, head_count=20, imbalance_ratio=0.1, tail_class_count=2, seed=4
        )
        lone = min(i for i in split.train_idx if toy_graph.labels[i] in split.tail_classes)
        graph = replace(toy_graph, edges=tuple(e for e in toy_graph.edges if lone not in e))
        write_dataset(graph, tmp_path / "data", tail_class_count=2)
        data = fast_config(tmp_path / "data", tmp_path / "run")
        data["edge_strategy"] = "duplicate"
        report = run_augment(RunConfig.from_dict(data))

        prov = (tmp_path / "run" / "augmented" / "provenance.jsonl").read_text()
        records = [json.loads(l) for l in prov.splitlines() if l.strip()]
        assert len(records) == report["synthetic_count"] > 0
        assert {r["isolated"] for r in records} == {True, False}
        total = 0
        for rec in records:
            neighbors = graph.neighbors(rec["anchor"])
            assert rec["edges"] == [[t, 1.0] for t in neighbors]
            assert rec["isolated"] == (len(neighbors) == 0)
            total += len(neighbors)
        assert report["edge_assignment"]["edges_added"] == total
        assert report["edge_assignment"]["isolated"] == sum(r["isolated"] for r in records)

    def test_warm_cache_reuses_generations(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        first = run_augment(cfg)
        assert first["generation"]["generated"] == 36
        names = ("nodes.jsonl", "edges.jsonl", "meta.json", "provenance.jsonl")
        cold = {
            name: (tmp_path / "run" / "augmented" / name).read_bytes()
            for name in names
        }
        second = run_augment(cfg)
        assert second["generation"]["generated"] == 0
        assert second["generation"]["cache_hits"] == 36
        for name in names:
            assert (tmp_path / "run" / "augmented" / name).read_bytes() == cold[name]

    def test_expected_synthetic_count_per_class(self, tmp_path, toy_dataset_dir):
        data = fast_config(toy_dataset_dir, tmp_path / "run")
        data["imbalance_ratio"] = 0.25  # 5 train nodes per tail class
        report = run_augment(RunConfig.from_dict(data))
        assert report["synthetic_count"] == 2 * (20 - 5)


def all_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _dirs, names in os.walk(root)
        for name in names
    )


class TestAtomicWrites:
    """A write that raises partway leaves the previous file whole and no
    temp file behind."""

    def test_report(self, tmp_path):
        path = tmp_path / "report.json"
        write_report({"a": 1}, path)
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_report({"a": 2, "b": object()}, path)  # fails after "a" is written
        assert path.read_bytes() == before
        assert all_files(tmp_path) == ["report.json"]

    def test_dataset(self, tmp_path, toy_graph):
        write_dataset(toy_graph, tmp_path, provenance=[{"node_id": 0}])
        before = {name: (tmp_path / name).read_bytes() for name in all_files(tmp_path)}
        with pytest.raises(TypeError):
            write_dataset(toy_graph, tmp_path, provenance=[{"node_id": 1}, {"x": object()}])
        assert {name: (tmp_path / name).read_bytes() for name in all_files(tmp_path)} == before

    def test_embeddings(self, tmp_path, toy_dataset_dir, monkeypatch):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        path = tmp_path / "run" / "embeddings.npz"
        before, files = path.read_bytes(), all_files(tmp_path / "run")

        def torn_savez(file, **arrays):
            # np.savez takes a path or an open file
            if isinstance(file, (str, os.PathLike)):
                with open(file, "wb") as fh:
                    fh.write(b"PK partial")
            else:
                file.write(b"PK partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", torn_savez)
        with pytest.raises(OSError, match="disk full"):
            run_augment(cfg)
        assert path.read_bytes() == before
        assert all_files(tmp_path / "run") == files


class TestTrainEval:
    def test_grid_origin_only(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        report = run_train_eval(cfg, grid=("origin",))
        assert list(report["cells"].keys()) == ["origin"]
        block = report["cells"]["origin"]["metrics"]
        assert set(block) == {"acc", "bacc", "macro_f1", "gmean", "head_tail_gap", "final_loss"}
        assert len(report["cells"]["origin"]["per_seed"]) == 2

    def test_probe_trained_only_for_non_origin_cells(
        self, tmp_path, toy_dataset_dir, monkeypatch
    ):
        from tagaug import edges, pipeline

        kinds = []
        original = pipeline.train_classifier

        def counting(*args, **kwargs):
            kinds.append(kwargs.get("kind", "mlp"))
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train_classifier", counting)
        monkeypatch.setattr(edges, "train_classifier", counting)
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        kinds.clear()
        origin_only = run_train_eval(cfg, grid=("origin",))
        assert kinds == ["gcn", "gcn"]  # one GCN per eval seed, no probe
        kinds.clear()
        with_llm = run_train_eval(cfg, grid=("origin", "llm"))
        assert kinds == ["mlp"] + ["gcn"] * 4
        assert origin_only["cells"]["origin"] == with_llm["cells"]["origin"]

    def test_mean_std_over_seeds(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        report = run_train_eval(cfg, grid=("origin",))
        per_seed = [r["macro_f1"] for r in report["cells"]["origin"]["per_seed"]]
        import numpy as np

        block = report["cells"]["origin"]["metrics"]["macro_f1"]
        assert block["mean"] == pytest.approx(np.mean(per_seed), abs=1e-3)
        assert block["std"] == pytest.approx(np.std(per_seed, ddof=1), abs=1e-3)

    def test_unknown_cell_rejected(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        with pytest.raises(ValueError, match="unknown grid cell"):
            run_train_eval(cfg, grid=("blah",))

    def test_missing_artifacts_error(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "nope"))
        with pytest.raises(FileNotFoundError):
            run_train_eval(cfg, grid=("llm",))

    def test_num_cells_and_gap_reported(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        report = run_train_eval(cfg, grid=("num", "num_C", "llm", "llm_C"))
        for cell in ("num", "num_C", "llm", "llm_C"):
            block = report["cells"][cell]
            assert block["boundary"] is not None
            assert "icr" in block["boundary"]
            assert "head_tail_gap" in block["metrics"]

    def test_offline_once_artifacts_exist(self, tmp_path, toy_dataset_dir):
        # evaluation must not touch encoder/generator endpoints when the
        # augment artifacts are on disk
        data = fast_config(toy_dataset_dir, tmp_path / "run")
        run_augment(RunConfig.from_dict(data))
        data["encoder"] = {"kind": "remote", "endpoint": "http://127.0.0.1:1", "model": "x"}
        data["generator"] = {"kind": "remote", "endpoint": "http://127.0.0.1:1", "model": "x"}
        report = run_train_eval(RunConfig.from_dict(data), grid=("origin", "llm"))
        assert "llm" in report["cells"]

    def test_reads_no_augmented_dataset_file(self, tmp_path, toy_dataset_dir):
        # augmented/{nodes,edges,meta} are outputs for the user; train-eval
        # rebuilds the llm nodes from provenance.jsonl and embeddings.npz
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        grid = ("origin", "llm", "llm_C")
        before = run_train_eval(cfg, grid=grid)
        for name in ("nodes.jsonl", "edges.jsonl", "meta.json"):
            (tmp_path / "run" / "augmented" / name).unlink()
        after = run_train_eval(cfg, grid=grid)
        before.pop("timings")
        after.pop("timings")
        assert after == before

    def test_warm_cache_reports_equal_modulo_timings(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)  # priming run (cold cache)
        stripped = []
        for _ in range(2):
            run_augment(cfg)
            run_train_eval(cfg, grid=("origin",))
            reports = []
            for name in ("augment_report.json", "train_eval_report.json"):
                body = json.loads((tmp_path / "run" / name).read_text())
                body.pop("timings")
                reports.append(json.dumps(body, sort_keys=True))
            stripped.append(reports)
        assert stripped[0] == stripped[1]


class TestCliCommands:
    def test_stats_command(self, toy_dataset_dir, capsys):
        assert main(["stats", "--data", str(toy_dataset_dir)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["node_count"] == 170
        assert out["class_count"] == 4
        assert out["tail_class_count"] == 2

    def test_augment_and_train_eval_commands(self, tmp_path, toy_dataset_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_dataset_dir, tmp_path / "run")))
        assert main(["augment", "--config", str(cfg_path)]) == 0
        assert main(["train-eval", "--config", str(cfg_path), "--grid", "origin,llm"]) == 0
        out = capsys.readouterr().out
        assert "origin:" in out and "llm:" in out

    def test_verify_command(self, tmp_path, capsys):
        assert main(["verify", "--seed", "0", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert (tmp_path / "verify_report.json").exists()

    def test_flag_overrides(self, tmp_path, toy_dataset_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_dataset_dir, tmp_path / "run")))
        assert (
            main(
                [
                    "augment", "--config", str(cfg_path), "--seed", "9",
                    "--variant", "O", "--edge", "none", "--generator", "mock",
                    "--encoder", "hash",
                ]
            )
            == 0
        )
        report = json.loads((tmp_path / "run" / "augment_report.json").read_text())
        assert report["config"]["seed"] == 9
        assert report["config"]["variant"] == "O"
        assert report["config"]["edge_strategy"] == "none"

    def test_missing_seed_rejected(self, tmp_path, toy_dataset_dir):
        cfg = fast_config(toy_dataset_dir, tmp_path / "run")
        del cfg["seed"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit, match="seed"):
            main(["augment", "--config", str(cfg_path)])
