import json

import pytest

from tagaug.cli import main
from tagaug.pipeline import RunConfig, run_augment, run_train_eval
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
