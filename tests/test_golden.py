"""Golden output digests: a short toy augment + train-eval writes the same
bytes as when the digests were taken.

Every file the two commands leave is pinned by sha256: the reports without
`timings`, the augmented dataset with its provenance, split.json, the
generation cache, and the arrays of embeddings.npz (not its zip
container, whose bytes carry no numbers of their own). A change that keeps
outputs byte-identical passes unchanged; one that moves any output fails
here and names the file.

The numbers come from float64 training, so another numpy, BLAS or CPU may
round differently; there the digests say nothing and the tests skip, as
TestGoldenBits does.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from tagaug.embedding import EncoderConfig
from tagaug.fixtures import make_toy_tag
from tagaug.generation import GeneratorConfig
from tagaug.graph import write_dataset
from tagaug.neural import TrainConfig
from tagaug.pipeline import GRID_CELLS, RunConfig, run_augment, run_train_eval

from test_neural import GOLDEN_FINGERPRINT, numerics_fingerprint

# Taken with the step-major sparse product on GOLDEN_FINGERPRINT's numerics.
GOLDEN_OUTPUTS = {
    "augment_report.json": "99080e4679b1f148fe20223ecf169c6259f91ca6b1707066895101753af79c84",
    "augmented/edges.jsonl": "fb8a480fd76625617608de5effdabca92908af09094b322aa40ac718662bdbe8",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "e3472bc75d7b988d9ae2de99fb6d7a423125216d47e4b8d2f550a11fa54c37e5",
    "augmented/provenance.jsonl": "fc2f9097ce11479b6d2f614cfb42e8f33a870aac7003e28aed4a485b3b577c0e",
    "embeddings.npz": "735a04d3f1de3e251f8e4ab744536e79da135153470b43741e9f0ea6446d9af0",
    "gen_cache.jsonl": "a1b27cafedc8033b0d172a22f6874f7ac9d2b5b64b1752539d86e660bc165999",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "0bc9f8bf81737033eb6c52e563e186276c02fea24e9d35133047a7cc56f7522c",
}
# Taken with the dense product on the same numerics, before training kept
# bool ReLU and dropout flags in place of float pre-activations and masks.
GOLDEN_OUTPUTS_MIXUP = {
    "augment_report.json": "c57abad36ffa3dd9d8afb4dbc47d56d654ecab790aafe7c167b0533da584893a",
    "augmented/edges.jsonl": "f96883ea1ebc56bfbaab95c5cf29780d46d7a51f4560d922ff6be15781551837",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "e5a32f42a427b9e83ab13deb3ded6cc6085026187b46b97b50537023ea725e1e",
    "augmented/provenance.jsonl": "c712c4bda8454136e425f1b4f162fbe3c9bc7479bd74635194d72e0f1e1ad305",
    "embeddings.npz": "b9be012fb155a8afb714db52496887c09eef75a1fd0f140e16898dedfa04d6b2",
    "gen_cache.jsonl": "c44beb53d7781e445516bf5824cbfcbd8a272d85f747655d23c9ce4a3472f1c7",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "48f8e00d7a0666424ff2eba2b9ce17f721bcd1ad302ee1e9e0a867a35f442956",
}


def golden_config():
    """The acceptance config, cut to 20 GCN epochs and eval seeds (0, 1).

    Variant O copies each anchor, so its synthetic rows tie in score with
    every copy of the same anchor. With knn_k 2 and 15 head nodes the copy
    groups (6, 6, 7 and 7) do not divide the edge budget, so the top-k cut
    falls inside a tie and the tie order shows in the edges. Paths are
    relative, so the reports do not hold the temporary directory.
    """
    return RunConfig(
        dataset_dir="data",
        out_dir="out",
        seed=4,
        variant="O",
        knn_k=2,
        head_count=15,
        imbalance_ratio=0.1,
        edge_factor=8,
        tau_conf=0.0,
        eval_seeds=(0, 1),
        encoder=EncoderConfig(kind="hashing", dim=256),
        generator=GeneratorConfig(kind="mock", seed=0),
        classifier=TrainConfig(
            epochs=20, learning_rate=0.01, dropout=0.5, hidden_dims=(64, 64), seed=0
        ),
        confidence=TrainConfig(
            epochs=300, learning_rate=0.001, dropout=0.0, hidden_dims=(256,), seed=0
        ),
    )


def file_digest(path):
    """sha256 of a file's bytes; of a report without its timings; of each
    array of an .npz by name, dtype, shape and bytes."""
    h = hashlib.sha256()
    if path.name.endswith("_report.json"):
        report = json.loads(path.read_text(encoding="utf-8"))
        report.pop("timings")
        h.update(json.dumps(report, sort_keys=True).encode("utf-8"))
    elif path.suffix == ".npz":
        with np.load(path) as arrays:
            for name in sorted(arrays.files):
                array = arrays[name]
                h.update(f"{name} {array.dtype.str} {array.shape}".encode("utf-8"))
                h.update(np.ascontiguousarray(array).tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


def output_digests(out_dir):
    return {
        path.relative_to(out_dir).as_posix(): file_digest(path)
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


class TestGoldenOutputs:
    golden = GOLDEN_OUTPUTS
    overrides = {}

    @pytest.fixture(autouse=True, scope="class")
    def same_numerics(self):
        here = numerics_fingerprint()
        if here != GOLDEN_FINGERPRINT:
            pytest.skip(f"golden digests taken on {GOLDEN_FINGERPRINT}, running on {here}")

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        write_dataset(make_toy_tag(seed=2), root / "data", tail_class_count=2)
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(root)
            cfg = replace(golden_config(), **self.overrides)
            run_augment(cfg)
            run_train_eval(cfg, grid=GRID_CELLS)
        return root / "out"

    @pytest.fixture(scope="class")
    def digests(self, out_dir):
        return output_digests(out_dir)

    def test_every_output_is_pinned(self, digests):
        assert sorted(digests) == sorted(self.golden)

    @pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
    def test_output_is_byte_identical(self, digests, name):
        assert digests[name] == self.golden[name]


class TestGoldenOutputsMixupConfidence(TestGoldenOutputs):
    """Variant M (mixup) under a confidence floor tau_conf of 0.3.

    The toy's scores reach 0.3 on 1,995 of the 26 x 170 candidates. An edge
    factor of 80 asks for 2,080 edges, so the floor, not the budget, sets
    the cut.
    """

    golden = GOLDEN_OUTPUTS_MIXUP
    overrides = {"variant": "M", "tau_conf": 0.3, "edge_factor": 80}

    def test_tau_conf_sets_the_cut(self, out_dir):
        report = json.loads((out_dir / "augment_report.json").read_text(encoding="utf-8"))
        wiring = report["edge_assignment"]
        assert wiring["edges_added"] == 1995 < wiring["k_edge"] == 2080
