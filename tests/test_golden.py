"""Golden output digests: a short toy augment + train-eval writes the same
bytes as when the digests were taken.

Every file the two commands leave is pinned by sha256: the reports without
`timings`, the augmented dataset with its provenance, split.json, the
generation cache, and the arrays of embeddings.npz and source_graph.npz
(not their zip containers, whose bytes carry no numbers of their own).
source_graph.npz depends on the dataset alone, so the sets share its
digest. The remote set runs against test_wire's stub on a free port, so
its reports are digested without the endpoints and the config digest
that name the port. A change that keeps outputs byte-identical passes
unchanged; one that moves any output fails here and names the file.

The numbers come from float32 training (train-eval's GCNs, the boundary
probe and the confidence net, whose kappa scales every edge score) and
float64 embeddings and scores, so another numpy, BLAS or CPU may round
differently; there the digests say nothing and the tests skip, as
TestGoldenBits does.

Each set's provenance.jsonl, and the default and mixup sets'
augment_report.json, were re-taken when training moved to float32: the
edge scores moved by at most 1.6e-5 (one score_quantiles entry in each
report, in its sixth decimal), and every selected edge stayed the same.
Every other digest is older.
"""

import hashlib
import json
import threading
from dataclasses import replace
from http.server import ThreadingHTTPServer
from itertools import chain, zip_longest

import numpy as np
import pytest

from tagaug.embedding import EncoderConfig, encode_hashing
from tagaug.fixtures import make_toy_tag
from tagaug.generation import GeneratorConfig
from tagaug.graph import write_dataset
from tagaug.neural import TrainConfig
from tagaug.pipeline import GRID_CELLS, RunConfig, run_augment, run_train_eval

from test_neural import GOLDEN_FINGERPRINT, numerics_fingerprint
from test_wire import StubHandler

# Taken with the step-major sparse product on GOLDEN_FINGERPRINT's numerics.
GOLDEN_OUTPUTS = {
    "augment_report.json": "dcbfabef077704f6251449a1dc9901cbbb684280ab5510b3b8ed613ef3373c0b",
    "augmented/edges.jsonl": "fb8a480fd76625617608de5effdabca92908af09094b322aa40ac718662bdbe8",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "e3472bc75d7b988d9ae2de99fb6d7a423125216d47e4b8d2f550a11fa54c37e5",
    "augmented/provenance.jsonl": "dd3202d6f61d460a8d93709b5650caa20a7e60bd3231a2b616ce8eb97f001909",
    "embeddings.npz": "735a04d3f1de3e251f8e4ab744536e79da135153470b43741e9f0ea6446d9af0",
    "gen_cache.jsonl": "a1b27cafedc8033b0d172a22f6874f7ac9d2b5b64b1752539d86e660bc165999",
    "source_graph.npz": "69a721346b145000296ab6a7112c47e7c56017c6d4cd39e3fb10d956e5c6a0ed",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "0bc9f8bf81737033eb6c52e563e186276c02fea24e9d35133047a7cc56f7522c",
}
# Taken with the dense product on the same numerics, before training kept
# bool ReLU and dropout flags in place of float pre-activations and masks.
GOLDEN_OUTPUTS_MIXUP = {
    "augment_report.json": "6db2f04cee37ccac395c37dd4befb6648ed6461c0bc3db86daa699fef32959e8",
    "augmented/edges.jsonl": "f96883ea1ebc56bfbaab95c5cf29780d46d7a51f4560d922ff6be15781551837",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "e5a32f42a427b9e83ab13deb3ded6cc6085026187b46b97b50537023ea725e1e",
    "augmented/provenance.jsonl": "3b42896095fcbe04455f5e1574cb35620ef4a242407111031fe0610dec5cb2bf",
    "embeddings.npz": "b9be012fb155a8afb714db52496887c09eef75a1fd0f140e16898dedfa04d6b2",
    "gen_cache.jsonl": "c44beb53d7781e445516bf5824cbfcbd8a272d85f747655d23c9ce4a3472f1c7",
    "source_graph.npz": "69a721346b145000296ab6a7112c47e7c56017c6d4cd39e3fb10d956e5c6a0ed",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "48f8e00d7a0666424ff2eba2b9ce17f721bcd1ad302ee1e9e0a867a35f442956",
}

# Variant S (same-class interpolation), the default and the benchmark's
# variant, taken on the same numerics before the boundary references became
# plain arrays and dicts.
GOLDEN_OUTPUTS_SMOTE = {
    "augment_report.json": "78ce20b877621b125ab786b28f98935185b717136a930e0282e03cc0bd92301c",
    "augmented/edges.jsonl": "5b30b570990bc80f5830ec1e1689692b6a7d3b89c93c1f2935cf2a70babbabb1",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "09dceeea17535405ab3b8bc90771458e10b80e1b9f69e7a06b92a669a101b7c7",
    "augmented/provenance.jsonl": "4c2c151f9483a82dc7afa6c638abac1c9e0f4651599d582763623705ae194c58",
    "embeddings.npz": "61402c339dcb7e33a81790838ce25216186fc35e98a6eb55feb0836668dfe884",
    "gen_cache.jsonl": "b4483d6d7f4156b83204dbc159c925fb1a57651a3dd1e003d386e7b8a1d0d30a",
    "source_graph.npz": "69a721346b145000296ab6a7112c47e7c56017c6d4cd39e3fb10d956e5c6a0ed",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "5d78fa7ba06a0de9adbb7c040bb5781109cc6828eac021620984368879165a99",
}

# Variant O with the remote encoder and generator on StubHandler, taken on
# the same numerics before wiring and merging took synthetic rows as columns.
GOLDEN_OUTPUTS_REMOTE = {
    "augment_report.json": "d1b945d93861a5b993a193da755fef23d5e2ce04c86e00d3ee4366d7577fc5a7",
    "augmented/edges.jsonl": "d4e787666af6943439e7bae345abddb6a65a774250a9371f364d6226fddfddc5",
    "augmented/meta.json": "ee6ff93211905d7ef259ffdea703eae960bd63f88af89b72919301cf2752eeea",
    "augmented/nodes.jsonl": "0b594dcfc3b1bde262f6b0fc3a92a70aba8ffb9d245294a116af15398422612d",
    "augmented/provenance.jsonl": "50c669d26d651b6696bf8fd1762c2ee4260d2d26f29dcf4bbfa8531a169aeff7",
    "embeddings.npz": "e4c31217f326a8cd979e80a28371f3857c2cb580b29ea38f941b9a4f55d25102",
    "gen_cache.jsonl": "b4dc9c3d3c2bee5579b5eb85ef76e775495bbb624a2f1aacbe34e5f0ddac8bab",
    "source_graph.npz": "69a721346b145000296ab6a7112c47e7c56017c6d4cd39e3fb10d956e5c6a0ed",
    "split.json": "3edb0c1296ff8d6a92f5d955d4a8d209276163faee5b690e97c165e6567038ca",
    "train_eval_report.json": "f734e335fa579814bc7135b4aa0413c7ef0b24f531557105047940ae454881ad",
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


class TestGoldenOutputsSmote(TestGoldenOutputs):
    """Variant S, the default and the benchmark's: each synthetic text
    interpolates two same-class neighbours."""

    golden = GOLDEN_OUTPUTS_SMOTE
    overrides = {"variant": "S"}


def remote_reply(body):
    """A chat reply made from the request body alone: every other word of
    the seed texts, taken from each seed in turn."""
    seeds = [
        message["content"].removeprefix("<START>").removesuffix("<END>").split()
        for message in body["messages"]
        if message["role"] == "assistant"
    ]
    words = [word for word in chain.from_iterable(zip_longest(*seeds)) if word]
    return f"<START>{' '.join(words[::2])}<END>"


def without_endpoint(report):
    """The report without what names the stub's port: both endpoint fields
    and the config digest that hashes them."""
    report.pop("config_digest")
    for block in ("encoder", "generator"):
        report["config"][block].pop("endpoint")
    return report


class TestGoldenOutputsRemote(TestGoldenOutputs):
    """The golden run with the remote encoder and generator, served by
    test_wire's StubHandler: the embeddings are the 32-dim hashing rows of
    each text, and each reply depends on its request body alone. The stub
    listens on a free port, so the reports are digested without it."""

    golden = GOLDEN_OUTPUTS_REMOTE

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden_remote")
        write_dataset(make_toy_tag(seed=2), root / "data", tail_class_count=2)
        server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
        server.state = {
            "requests": [],
            "fail_remaining": 0,
            "embed_fn": lambda text, i: encode_hashing([text], 32).vectors[0].tolist(),
            "chat_fn": remote_reply,
        }
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(root)
                cfg = replace(
                    golden_config(),
                    encoder=EncoderConfig(kind="remote", endpoint=base, model="emb-1"),
                    generator=GeneratorConfig(kind="remote", endpoint=base, model="chat-1"),
                )
                run_augment(cfg)
                run_train_eval(cfg, grid=GRID_CELLS)
        finally:
            server.shutdown()
            server.server_close()
        out = root / "out"
        for name in ("augment_report.json", "train_eval_report.json"):
            report = without_endpoint(json.loads((out / name).read_text(encoding="utf-8")))
            (out / name).write_text(json.dumps(report), encoding="utf-8")
        return out
