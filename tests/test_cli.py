import argparse
import builtins
import json
import os
import shutil
import stat
from dataclasses import fields, replace

import numpy as np
import pytest

from tagaug import edges, pipeline
from tagaug.cli import _load_config, build_parser, main
from tagaug.graph import DatasetError, make_longtail_split, write_dataset
from tagaug.pipeline import (
    RunConfig,
    load_artifacts,
    load_split,
    run_augment,
    run_train_eval,
    write_report,
)
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


@pytest.fixture()
def trainings(monkeypatch):
    """The kind ("mlp" or "gcn") of each classifier trained so far, in
    call order, over both modules that call train_classifier."""
    kinds = []

    def counted(real):
        def train(*args, **kwargs):
            kinds.append(kwargs.get("kind", "mlp"))
            return real(*args, **kwargs)
        return train

    for module in (pipeline, edges):
        monkeypatch.setattr(module, "train_classifier", counted(module.train_classifier))
    return kinds


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

    @pytest.mark.parametrize(
        "override, match",
        [
            ({"knn_k": 0}, "knn_k"),
            ({"edge_factor": 0}, "factor"),
            ({"tau_conf": 1.5}, "tau_conf"),
            ({"eval_seeds": []}, "eval_seeds"),
            ({"head_count": 0}, "head_count must be >= 1"),
            ({"head_count": 2.5}, "head_count must be an integer, got 2.5"),
            ({"imbalance_ratio": 0}, r"imbalance_ratio must lie in \(0, 1\]"),
            ({"imbalance_ratio": float("nan")}, "imbalance_ratio"),
        ],
    )
    def test_ranges_checked_when_built(self, tmp_path, override, match):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        with pytest.raises(ValueError, match=match):
            RunConfig.from_dict({**data, **override})

    def test_val_fraction_checked_when_built(self, tmp_path):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        for fraction in (0.0, 0.25, 0.99):
            assert RunConfig.from_dict({**data, "val_fraction": fraction}).val_fraction == fraction
        for fraction in (-0.5, 1.0, float("nan")):
            with pytest.raises(ValueError, match="val_fraction"):
                RunConfig.from_dict({**data, "val_fraction": fraction})

    @pytest.mark.parametrize("part", ["generator", "encoder"])
    def test_component_kind_checked_when_built(self, tmp_path, part):
        data = fast_config(tmp_path / "d", tmp_path / "o")
        choices = {"generator": "'mock', 'remote'", "encoder": "'hashing', 'remote'"}[part]
        with pytest.raises(ValueError, match=f"{part}.kind must be one of {choices}, got 'mocl'"):
            RunConfig.from_dict({**data, part: {"kind": "mocl"}})


def test_load_split_takes_an_explicit_tail_class_count_over_meta_json(
    tmp_path, toy_dataset_dir
):
    cfg = RunConfig(
        dataset_dir=str(toy_dataset_dir), out_dir=str(tmp_path / "run"), seed=7,
        tail_class_count=1,
    )
    graph, split, tail_count = load_split(cfg)
    assert tail_count == 1
    assert split == make_longtail_split(
        graph, head_count=20, imbalance_ratio=0.1, tail_class_count=1, val_fraction=0.25,
        seed=7,
    )
    assert len(split.tail_classes) == 1
    assert load_split(replace(cfg, tail_class_count=None))[2] == 2  # meta.json's


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
        assert set(report["timings"]) == {
            "load_split_s", "encode_s", "generate_s", "encode_synthetic_s", "edges_s", "write_s"
        }

    def test_augment_reads_each_dataset_file_once(self, tmp_path, toy_dataset_dir, monkeypatch):
        # The split's tail count and the prompt's dataset name come from the
        # meta.json bytes source_graph.npz's digest covers, not a second read.
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        opened, real_open = [], builtins.open

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        run_augment(cfg)
        monkeypatch.undo()
        directory = os.path.abspath(toy_dataset_dir)
        assert sorted(
            os.path.basename(path) for path in opened
            if isinstance(path, (str, os.PathLike))
            and os.path.dirname(os.path.abspath(path)) == directory
        ) == ["edges.jsonl", "meta.json", "nodes.jsonl"]

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
        graph = replace(toy_graph, edges=toy_graph.edges[(toy_graph.edges != lone).all(axis=1)])
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

    def test_synced_before_and_after_the_move(self, tmp_path, monkeypatch):
        # The temp file is on disk before os.replace moves it, and on POSIX
        # the directory that holds the move after it.
        calls = []
        fsync, os_replace = os.fsync, os.replace

        def recording_fsync(fd):
            calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        def recording_replace(src, dst):
            calls.append("replace")
            os_replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        write_report({"a": 1}, tmp_path / "report.json")
        want = ["fsync file", "replace"] + ["fsync dir"] * (os.name == "posix")
        assert calls == want
        assert json.loads((tmp_path / "report.json").read_text()) == {"a": 1}

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
        self, tmp_path, toy_dataset_dir, trainings
    ):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        trainings.clear()
        origin_only = run_train_eval(cfg, grid=("origin",))
        assert trainings == ["gcn", "gcn"]  # one GCN per eval seed, no probe
        trainings.clear()
        with_llm = run_train_eval(cfg, grid=("origin", "llm"))
        assert trainings == ["mlp"] + ["gcn"] * 4
        assert origin_only["cells"]["origin"] == with_llm["cells"]["origin"]

    def test_every_cell_seed_gcn_trains_from_one_job_list(
        self, tmp_path, toy_dataset_dir, monkeypatch
    ):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        lists, real = [], pipeline.train_jobs
        monkeypatch.setattr(pipeline, "train_jobs", lambda jobs: lists.append(jobs) or real(jobs))
        grid = ("origin", "llm", "llm_C")
        report = run_train_eval(cfg, grid=grid)
        assert [len(jobs) for jobs in lists] == [2, len(grid) * len(cfg.eval_seeds)]
        gcns = lists[1]
        assert all(job.keywords["kind"] == "gcn" for job in gcns)
        assert [job.args[3].seed for job in gcns] == list(cfg.eval_seeds) * len(grid)
        for i, cell in enumerate(grid):
            jobs = gcns[i * len(cfg.eval_seeds):(i + 1) * len(cfg.eval_seeds)]
            adjacency = jobs[0].keywords["adjacency"]
            assert all(job.keywords["adjacency"] is adjacency for job in jobs)
            n = report["cells"][cell]["node_count"]
            assert adjacency.shape == (n, n)
            assert len(adjacency.indices) == n + 2 * report["cells"][cell]["edge_count"]

    def test_a_failing_cell_build_trains_no_gcn(
        self, tmp_path, toy_dataset_dir, monkeypatch, trainings
    ):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        real = pipeline.wire_nodes

        def wire_nodes(rows, anchors, graph, strategy, *args):
            if strategy == "confidence":
                raise RuntimeError("llm_C wiring failed")
            return real(rows, anchors, graph, strategy, *args)

        monkeypatch.setattr(pipeline, "wire_nodes", wire_nodes)
        trainings.clear()
        with pytest.raises(RuntimeError, match="llm_C wiring failed"):
            run_train_eval(cfg, grid=("origin", "llm", "llm_C"))
        assert sorted(trainings) == ["mlp", "mlp"]  # the probe and the confidence net
        assert not (tmp_path / "run" / "train_eval_report.json").exists()

    def test_mean_std_over_seeds(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        report = run_train_eval(cfg, grid=("origin",))
        per_seed = [r["macro_f1"] for r in report["cells"]["origin"]["per_seed"]]
        import numpy as np

        block = report["cells"]["origin"]["metrics"]["macro_f1"]
        assert block["mean"] == pytest.approx(np.mean(per_seed), abs=1e-3)
        assert block["std"] == pytest.approx(np.std(per_seed, ddof=1), abs=1e-3)

    def test_theory_checks_carry_the_stored_seed_and_version(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        stored = {
            "all_passed": False, "seed": 7, "tool_version": "0.0.stored",
            "checks": [{"name": "a", "passed": True, "detail": 1}, {"name": "b", "passed": False}],
            "timings": {"total_s": 1.0},
        }
        write_report(stored, str(tmp_path / "run" / "verify_report.json"))
        report = run_train_eval(cfg, grid=("origin",))
        assert report["theory_checks"] == {
            "all_passed": False, "seed": 7, "tool_version": "0.0.stored",
            "checks": [{"name": "a", "passed": True}, {"name": "b", "passed": False}],
        }

    def test_unknown_cell_rejected(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        with pytest.raises(ValueError, match="unknown grid cell"):
            run_train_eval(cfg, grid=("blah",))

    def test_missing_artifacts_error(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "nope"))
        with pytest.raises(DatasetError, match=r"^split\.json: .*augment has not finished"):
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

    def test_num_rows_synthesized_once(self, tmp_path, toy_dataset_dir, monkeypatch):
        calls = []
        original = pipeline.numeric_augment

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, "numeric_augment", counting)
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        both = run_train_eval(cfg, grid=("num", "num_C"))
        assert len(calls) == 1
        # a grid of one num cell synthesizes its rows for itself
        for cell in ("num", "num_C"):
            alone = run_train_eval(cfg, grid=(cell,))
            assert alone["cells"][cell] == both["cells"][cell]
        assert len(calls) == 3

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

    def test_malformed_provenance_line_is_named(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        path = tmp_path / "run" / "augmented" / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[1] = lines[1][:-1]
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^provenance\.jsonl line 2: malformed JSON"):
            run_train_eval(cfg, grid=("origin", "llm"))

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda rec, g: rec.pop("anchor"), r"missing key 'anchor'"),
            (lambda rec, g: rec.update(label=g.num_classes), r"label out of range \(4 not in \[0, 4\)\)"),
            (lambda rec, g: rec.update(label=-1), r"label out of range \(-1 not in"),
            (lambda rec, g: rec.update(anchor=g.node_count), r"anchor out of range \(170 not in"),
            (lambda rec, g: rec.update(anchor=1.0), r"anchor 1\.0 is not an integer"),
            (lambda rec, g: rec.update(anchor=True), r"anchor true is not an integer"),
        ],
        ids=["no anchor", "label C", "label -1", "anchor N", "float anchor", "bool anchor"],
    )
    def test_bad_provenance_record_is_named(
        self, tmp_path, toy_dataset_dir, toy_graph, edit, named
    ):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        path = tmp_path / "run" / "augmented" / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        rec = json.loads(lines[1])
        edit(rec, toy_graph)
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(DatasetError, match=r"^provenance\.jsonl line 2: " + named):
            load_artifacts(cfg)

    def test_provenance_shorter_than_synthetic_rows(self, tmp_path, toy_dataset_dir):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        rows = run_augment(cfg)["synthetic_count"]
        path = tmp_path / "run" / "augmented" / "provenance.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        with pytest.raises(
            DatasetError,
            match=rf"^embeddings\.npz has {rows} synthetic rows but "
            rf"provenance\.jsonl has {rows - 1} records$",
        ):
            run_train_eval(cfg, grid=("origin", "llm"))

    @pytest.mark.parametrize(
        "name, edit, named",
        [
            ("embeddings.npz", lambda arrays: arrays.update(original=arrays["original"][:-1]),
             r"embeddings\.npz has 169 original rows but the dataset has 170 nodes"),
            ("embeddings.npz", lambda arrays: arrays.update(synthetic=arrays["synthetic"][:, 1:]),
             r"embeddings\.npz has synthetic rows of shape \(127,\) but original rows of shape "
             r"\(128,\)"),
            ("split.json", lambda split: split["test_idx"].append(170),
             r"split\.json: index out of range \(170 not in \[0, 170\)\)"),
        ],
        ids=["original rows", "synthetic columns", "split index"],
    )
    def test_artifacts_that_do_not_fit_the_dataset_are_refused(
        self, tmp_path, toy_dataset_dir, name, edit, named
    ):
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        path = tmp_path / "run" / name
        if name == "split.json":
            content = json.loads(path.read_text(encoding="utf-8"))
            edit(content)
            path.write_text(json.dumps(content), encoding="utf-8")
        else:
            with np.load(path) as data:
                content = dict(data)
            edit(content)
            np.savez(path, **content)
        with pytest.raises(DatasetError, match=f"^{named}$"):
            load_artifacts(cfg)

    def test_missing_provenance_is_refused(self, tmp_path, toy_dataset_dir):
        # augment always writes it, so an out dir without it is damaged
        cfg = RunConfig.from_dict(fast_config(toy_dataset_dir, tmp_path / "run"))
        run_augment(cfg)
        (tmp_path / "run" / "augmented" / "provenance.jsonl").unlink()
        with pytest.raises(DatasetError, match=r"^provenance\.jsonl: no such file in "):
            run_train_eval(cfg, grid=("origin",))

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


def edit_json(edit):
    """A damage that rewrites a JSON file with edit applied to its value."""
    def damage(path):
        path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))))
    return damage


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


# case -> (file under the out dir, damage). verify_report.json is the file
# `tagaug verify --out` writes there; train-eval reads it only when present.
DAMAGED_ARTIFACTS = {
    "split.json not JSON": ("split.json", lambda path: path.write_text("{\n")),
    "split.json unknown key": ("split.json", edit_json(lambda split: {**split, "extra": 1})),
    "split.json scalar index": ("split.json", edit_json(lambda split: {**split, "train_idx": 5})),
    "split.json a list": ("split.json", edit_json(lambda split: [split])),
    "split.json tail class out of range": (
        "split.json", edit_json(lambda split: {**split, "tail_classes": [99]}),
    ),
    "split.json head_count not an integer": (
        "split.json", edit_json(lambda split: {**split, "head_count": "x"}),
    ),
    "embeddings.npz missing": ("embeddings.npz", os.unlink),
    "embeddings.npz truncated": ("embeddings.npz", truncate),
    "provenance.jsonl missing": ("augmented/provenance.jsonl", os.unlink),
    "verify_report.json not JSON": ("verify_report.json", lambda path: path.write_text("{")),
    "verify_report.json without checks": (
        "verify_report.json", lambda path: path.write_text('{"all_passed": true}'),
    ),
    "verify_report.json a list": ("verify_report.json", lambda path: path.write_text("[]")),
}


@pytest.fixture(scope="module")
def augmented_toy(tmp_path_factory, toy_graph):
    """A toy dataset and the out dir augment made from it, built once; each
    test damages a copy."""
    root = tmp_path_factory.mktemp("augmented_toy")
    write_dataset(toy_graph, root / "data", tail_class_count=2)
    run_augment(RunConfig.from_dict(fast_config(root / "data", root / "run")))
    return root


class TestCliCommands:
    @pytest.mark.parametrize("case", sorted(DAMAGED_ARTIFACTS))
    def test_damaged_artifact_exits_1_with_one_line(
        self, tmp_path, augmented_toy, capsys, trainings, case
    ):
        shutil.copytree(augmented_toy, tmp_path, dirs_exist_ok=True)
        name, damage = DAMAGED_ARTIFACTS[case]
        damage(tmp_path / "run" / name)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(tmp_path / "data", tmp_path / "run")))
        capsys.readouterr()
        assert main(["train-eval", "--config", str(cfg_path), "--grid", "origin"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"tagaug train-eval: error: {os.path.basename(name)}: ")
        assert "Traceback" not in captured.out + captured.err
        assert trainings == []  # every artifact is read before any training
        if case == "verify_report.json without checks":
            assert lines[0] == (
                "tagaug train-eval: error: verify_report.json: missing key 'checks'; "
                "run verify again"
            )

    def test_cell_with_nothing_to_add_exits_1_before_any_training(
        self, tmp_path, toy_dataset_dir, capsys, trainings
    ):
        # a balanced split (the control) schedules no synthetic node
        cfg_path = tmp_path / "cfg.json"
        data = {**fast_config(toy_dataset_dir, tmp_path / "run"), "imbalance_ratio": 1.0}
        cfg_path.write_text(json.dumps(data))
        assert main(["augment", "--config", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out)["synthetic_count"] == 0
        assert trainings == []
        assert main(["train-eval", "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "tagaug train-eval: error: cell llm: augment made no synthetic nodes to add"
        ]
        assert "Traceback" not in captured.out
        assert trainings == []
        assert not (tmp_path / "run" / "train_eval_report.json").exists()

    def test_stats_command(self, toy_dataset_dir, capsys):
        assert main(["stats", "--data", str(toy_dataset_dir)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["node_count"] == 170
        assert out["class_count"] == 4
        assert out["tail_class_count"] == 2

    def test_stats_command_names_a_bad_meta_json(self, toy_dataset_dir, capsys):
        (toy_dataset_dir / "meta.json").write_text('{"tail_class_count": 2}', encoding="utf-8")
        assert main(["stats", "--data", str(toy_dataset_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "tagaug stats: error: meta.json: class_names must be a list"
        ]

    @pytest.mark.parametrize("command", ["augment", "stats", "train-eval"])
    def test_refused_dataset_exits_1_with_one_line(
        self, tmp_path, toy_dataset_dir, capsys, command
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_dataset_dir, tmp_path / "run")))
        argv = {
            "augment": ["augment", "--config", str(cfg_path)],
            "stats": ["stats", "--data", str(toy_dataset_dir)],
            "train-eval": ["train-eval", "--config", str(cfg_path), "--grid", "origin"],
        }[command]
        if command == "train-eval":
            # augment read the dataset; one byte more in meta.json changes it
            assert main(["augment", "--config", str(cfg_path)]) == 0
            with open(toy_dataset_dir / "meta.json", "a", encoding="utf-8") as fh:
                fh.write("\n")
            message = "source_graph.npz: the dataset in"
        else:
            # the escape "\ud800" in node 5's text, a lone surrogate
            nodes = toy_dataset_dir / "nodes.jsonl"
            lines = nodes.read_text(encoding="utf-8").split("\n")
            lines[5] = lines[5].replace('"text": "', '"text": "\\ud800 ', 1)
            nodes.write_text("\n".join(lines), encoding="utf-8")
            message = "nodes.jsonl line 6: text holds a lone surrogate '\\ud800'"
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"tagaug {command}: error: {message}")
        assert "Traceback" not in captured.out + captured.err
        if command == "augment":
            assert not (tmp_path / "run" / "source_graph.npz").exists()

    def test_train_eval_before_augment_exits_1_with_one_line(
        self, tmp_path, toy_dataset_dir, capsys
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(fast_config(toy_dataset_dir, tmp_path / "empty")))
        (tmp_path / "empty").mkdir()
        assert main(["train-eval", "--config", str(cfg_path), "--grid", "origin"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("tagaug train-eval: error: split.json: no such file in ")
        assert "augment has not finished" in lines[0]
        assert "Traceback" not in captured.out + captured.err

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

    def test_flag_choices_are_the_declared_ones(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: list(a.choices) for a in sub.choices["augment"]._actions if a.choices}

        def declared(config, name):
            return list(next(f for f in fields(config) if f.name == name).metadata["choices"])

        assert flags == {
            "variant": declared(RunConfig, "variant"),
            "edge": declared(RunConfig, "edge_strategy"),
            "generator": declared(GeneratorConfig, "kind"),
            "encoder": ["hash" if kind == "hashing" else kind
                        for kind in declared(EncoderConfig, "kind")],
        }
        assert flags["encoder"] == ["hash", "remote"]

    @pytest.mark.parametrize("flag, kind", [("hash", "hashing"), ("remote", "remote")])
    def test_encoder_flag_sets_the_declared_kind(self, tmp_path, flag, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"encoder": {"dim": 64}}))
        args = build_parser().parse_args([
            "augment", "--config", str(cfg_path), "--data", "d", "--out", "o", "--seed", "1",
            "--encoder", flag,
        ])
        encoder = _load_config(args).encoder
        assert (encoder.kind, encoder.dim) == (kind, 64)

    @pytest.mark.parametrize(
        "command, override, extra, message",
        [
            ("augment", {"knn_k": 0}, [], "knn_k must be >= 1"),
            ("augment", {"knn": 3}, [], "unexpected keyword argument 'knn'"),
            ("train-eval", {}, ["--grid", "origin,blah"], "unknown grid cell: blah"),
            ("augment", {"tail_class_count": -1}, [], "tail_class_count must be >= 0, got -1"),
            ("augment", {"imbalance_ratio": 0}, [], "imbalance_ratio must lie in (0, 1], got 0"),
            ("augment", {"imbalance_ratio": 1.5}, [], "imbalance_ratio must lie in (0, 1]"),
            ("augment", {"head_count": 0}, [], "head_count must be >= 1, got 0"),
            ("train-eval", {"head_count": -3}, ["--grid", "origin"], "head_count must be >= 1"),
        ],
    )
    def test_bad_config_exits_2_before_any_stage(
        self, tmp_path, toy_dataset_dir, capsys, command, override, extra, message
    ):
        cfg_path = tmp_path / "cfg.json"
        data = {**fast_config(toy_dataset_dir, tmp_path / "run"), **override}
        cfg_path.write_text(json.dumps(data))
        assert main([command, "--config", str(cfg_path), *extra]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"tagaug {command}: error: ")
        assert message in lines[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--imbalance-ratio", "0"], "imbalance_ratio must lie in (0, 1], got 0.0"),
            (["--imbalance-ratio", "1.5"], "imbalance_ratio must lie in (0, 1], got 1.5"),
            (["--head-count", "0"], "head_count must be >= 1, got 0"),
        ],
    )
    def test_bad_split_setting_exits_2_from_stats(self, toy_dataset_dir, capsys, flags, message):
        assert main(["stats", "--data", str(toy_dataset_dir), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"tagaug stats: error: {message}"]
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["augment", "stats"])
    def test_split_the_dataset_cannot_hold_exits_1(
        self, tmp_path, toy_dataset_dir, capsys, command
    ):
        cfg_path = tmp_path / "cfg.json"
        data = {**fast_config(toy_dataset_dir, tmp_path / "run"), "head_count": 500}
        cfg_path.write_text(json.dumps(data))
        argv = {
            "augment": ["augment", "--config", str(cfg_path)],
            "stats": ["stats", "--data", str(toy_dataset_dir), "--head-count", "500"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"tagaug {command}: error: class 0 (topic0) has 60 nodes, "
            "needs 500 training + 1 val + 1 test"
        ]
        assert "Traceback" not in captured.out

    def test_missing_seed_rejected(self, tmp_path, toy_dataset_dir, capsys):
        cfg = fast_config(toy_dataset_dir, tmp_path / "run")
        del cfg["seed"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["augment", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "tagaug augment: error: a seed is required (--seed or config)"
        ]
        assert not (tmp_path / "run").exists()

    def test_missing_out_dir_rejected(self, tmp_path, toy_dataset_dir, capsys):
        cfg = fast_config(toy_dataset_dir, tmp_path / "run")
        del cfg["out_dir"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["train-eval", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "tagaug train-eval: error: dataset_dir and out_dir are required "
            "(--data/--out or config)"
        ]

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("augment", lambda c: c.update(edge_factor=2.5),
             "edge_factor must be an integer, got 2.5"),
            ("augment", lambda c: c.update(knn_k=2.5), "knn_k must be an integer, got 2.5"),
            ("augment", lambda c: c.update(seed="x"), "seed must be an integer, got 'x'"),
            ("augment", lambda c: c.update(tau_conf="0"), "tau_conf must be a number, got '0'"),
            ("augment", lambda c: c.update(variant=None), "variant must be a string, got None"),
            ("train-eval", lambda c: c.update(eval_seeds=["a"]),
             "eval_seeds must be a list of integers, got ('a',)"),
            ("train-eval", lambda c: c.update(eval_seeds=[True]),
             "eval_seeds must be a list of integers, got (True,)"),
            ("train-eval", lambda c: c["classifier"].update(epochs=2.5),
             "classifier.epochs must be an integer, got 2.5"),
            ("train-eval", lambda c: c["classifier"].update(hidden_dims=[2.5]),
             "classifier.hidden_dims must be a list of integers, got (2.5,)"),
            ("train-eval", lambda c: c["confidence"].update(seed=True),
             "confidence.seed must be an integer, got True"),
            ("augment", lambda c: c["generator"].update(strict_parse=1),
             "generator.strict_parse must be a boolean, got 1"),
            ("augment", lambda c: c.update(classifier=[]), "classifier must be an object, got []"),
            ("augment", lambda c: c.update(encoder={"kind": "remote", "batch_size": 0}),
             "encoder.batch_size must be >= 1, got 0"),
            ("augment", lambda c: c.update(encoder={"kind": "remote", "retry_count": -1}),
             "encoder.retry_count must be >= 0, got -1"),
            ("augment", lambda c: c.update(generator={"kind": "remote", "retry_count": -1}),
             "generator.retry_count must be >= 0, got -1"),
        ],
    )
    def test_bad_setting_exits_2_naming_the_field(
        self, tmp_path, toy_dataset_dir, capsys, command, edit, message
    ):
        cfg = fast_config(toy_dataset_dir, tmp_path / "run")
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"tagaug {command}: error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("augment", lambda c: c.update(seed=-5), "seed must be >= 0, got -5"),
            ("train-eval", lambda c: c.update(eval_seeds=[-1]),
             "eval_seeds[0] must be >= 0, got -1"),
            ("train-eval", lambda c: c.update(eval_seeds=[0, 0]),
             "eval_seeds must not repeat, got (0, 0)"),
            ("train-eval", lambda c: c["classifier"].update(hidden_dims=[0]),
             "classifier.hidden_dims[0] must be >= 1, got 0"),
            ("augment", lambda c: c["confidence"].update(hidden_dims=[-3]),
             "confidence.hidden_dims[0] must be >= 1, got -3"),
            ("train-eval", lambda c: c["classifier"].update(learning_rate=float("nan")),
             "classifier.learning_rate must be a finite number, got nan"),
            ("augment", lambda c: c["confidence"].update(dropout=float("-inf")),
             "confidence.dropout must be a finite number, got -inf"),
            ("train-eval", lambda c: c["classifier"].update(weight_decay=-1),
             "classifier.weight_decay must be >= 0, got -1"),
            ("augment", lambda c: c.update(encoder={"kind": "remote", "dim": 0}),
             "encoder.dim must be >= 1, got 0"),
            ("augment", lambda c: c.update(encoder={"kind": "hashing", "dim": 4}),
             "encoder.dim must be >= 8 for the hashing encoder, got 4"),
            ("augment", lambda c: c.update(encoder={"kind": "remote", "timeout": -1}),
             "encoder.timeout must be > 0, got -1"),
            ("augment", lambda c: c.update(generator={"kind": "remote", "timeout": -1}),
             "generator.timeout must be > 0, got -1"),
            ("augment", lambda c: c.update(encoder={"kind": "remote", "retry_backoff": -0.5}),
             "encoder.retry_backoff must be >= 0, got -0.5"),
            ("augment", lambda c: c.update(generator={"kind": "remote", "retry_backoff": -0.5}),
             "generator.retry_backoff must be >= 0, got -0.5"),
            ("augment", lambda c: c["generator"].update(max_tokens=0),
             "generator.max_tokens must be >= 1, got 0"),
            ("augment", lambda c: c["generator"].update(temperature=float("inf")),
             "generator.temperature must be a finite number, got inf"),
            ("train-eval", lambda c: c["classifier"].update(epochs="x"),
             "classifier.epochs must be an integer, got 'x'"),
            ("augment", lambda c: c["encoder"].update(dim="x"),
             "encoder.dim must be an integer, got 'x'"),
        ],
    )
    def test_value_out_of_bounds_exits_2_naming_the_path(
        self, tmp_path, toy_dataset_dir, capsys, command, edit, message
    ):
        cfg = fast_config(toy_dataset_dir, tmp_path / "run")
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"tagaug {command}: error: {message}"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["verify", "stats"])
    def test_negative_seed_flag_exits_2(self, tmp_path, toy_dataset_dir, capsys, command):
        extra = {"verify": ["--out", str(tmp_path / "run")],
                 "stats": ["--data", str(toy_dataset_dir)]}[command]
        assert main([command, "--seed", "-1", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"tagaug {command}: error: seed must be >= 0, got -1"]
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    def test_a_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert main(["augment", "--config", str(cfg_path), "--seed", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"tagaug augment: error: {cfg_path}: a config must be a JSON object"
        ]

    def test_data_and_out_flags_set_the_directories(self, tmp_path, toy_dataset_dir, capsys):
        # The config names other directories; the flags win in both stages.
        cfg = fast_config(tmp_path / "elsewhere", tmp_path / "elsewhere_out")
        cfg["classifier"]["epochs"] = cfg["confidence"]["epochs"] = 3
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        dirs = ["--data", str(toy_dataset_dir), "--out", str(tmp_path / "run")]
        assert main(["augment", "--config", str(cfg_path), *dirs]) == 0
        assert main(["train-eval", "--config", str(cfg_path), *dirs, "--grid", "origin"]) == 0
        for name in ("augment_report.json", "train_eval_report.json"):
            report = json.loads((tmp_path / "run" / name).read_text())
            assert report["config"]["dataset_dir"] == str(toy_dataset_dir)
            assert report["config"]["out_dir"] == str(tmp_path / "run")
        assert not (tmp_path / "elsewhere_out").exists()
