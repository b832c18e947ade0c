"""The benchmark's workloads: how each builds its inputs, the RunConfig it
hands to the pipeline, and the checks its outputs must pass.

Every workload runs the two commands a user runs, `run_augment` then
`run_train_eval`, through the public API, with inputs made from the
workload seed alone.

- toy_e2e: the acceptance-suite end-to-end run (criterion 7's config on
  make_toy_tag(seed=2)), cut to eval seeds (0, 1) so one repetition fits a
  run; it is all GCN training. Its input is fixed by definition, so the
  seed does not change it.
- wiring_10k: augment on a sampled 10k-node graph with confidence
  wiring; the confidence MLP over every row dominates, then top-k over
  the 475 x 10,000 candidate table. train-eval runs the origin cell only,
  with a two-epoch GCN: it times loading the artifacts and the probe
  that train-eval always trains.
- remote_resume: augment on the same graph with the remote encoder and
  generator against the stub process, duplicate wiring, and a generation
  cache primed with the first half of the pair schedule, as after a
  crash. No training in augment: HTTP waits, cache reads beside cache
  writes, and neighbour scans. train-eval as in wiring_10k.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import urllib.parse
import urllib.request

import numpy as np
import requests

from tagaug.embedding import EncoderConfig, cosine_matrix, encode_texts
from tagaug.fixtures import make_toy_tag
from tagaug.generation import (
    GeneratorConfig,
    default_prompt_spec,
    find_vicinal_twins,
    generate_interpolations,
    rebalance_targets,
)
from tagaug.graph import make_longtail_split, write_dataset
from tagaug.neural import TrainConfig
from tagaug.pipeline import RunConfig

import stub
from sampler import sample_tag

HERE = os.path.dirname(os.path.abspath(__file__))

# 5 head classes of 1,400 nodes and 5 tail classes of 600: 10,000 nodes,
# ~47k edges; 100 training nodes per head class and 5 per tail class give
# 5 x 95 = 475 synthetic nodes.
LARGE_CLASS_SIZES = (1400,) * 5 + (600,) * 5
LARGE_TAIL_COUNT = 5
# The confidence MLP costs ~0.19 s per epoch over 10k rows on one core of
# a 2.1 GHz Xeon; 40 epochs (not the 300 of the acceptance config) keep it
# the largest stage of augment while a repetition fits a 25 s run.
LARGE_CONFIDENCE_EPOCHS = 40


def _train_eval_small():
    return TrainConfig(epochs=2, learning_rate=0.01, dropout=0.5, hidden_dims=(64, 64), seed=0)


def _confidence(epochs):
    return TrainConfig(epochs=epochs, learning_rate=0.001, dropout=0.0, hidden_dims=(256,), seed=0)


class Workload:
    name = ""
    grid = ("origin",)
    capture_confidence = False
    # Calls per step in an untraced repetition; the step's time is their
    # median. A traced repetition calls each step once.
    repeats = {}

    def setup(self, directory, seed):
        """Build the inputs under `directory`; return the fixture dict."""
        raise NotImplementedError

    def teardown(self, fixture):
        pass

    def config(self, fixture, out_dir):
        raise NotImplementedError

    def prepare(self, fixture, out_dir):
        """Lay out `out_dir` before a repetition."""
        os.makedirs(out_dir)

    def finish(self, fixture, result):
        """Add what the repetition left outside its process to `result`."""

    def steps(self):
        return [["augment"], ["train_eval", list(self.grid)]]

    def check(self, fixture, out_dir, result):
        """Problems with one repetition's outputs, as strings."""
        augment = result["steps"][0]["report"]
        gen = augment["generation"]
        problems = []
        if augment["synthetic_count"] != gen["pairs_total"]:
            problems.append(
                f"synthetic_count {augment['synthetic_count']} != pairs_total {gen['pairs_total']}"
            )
        if gen["skipped"]:
            problems.append(f"{len(gen['skipped'])} pairs skipped")
        return problems

    def gain(self, result):
        """llm_C minus origin mean macro-F1; zero without an augmented cell."""
        return 0.0


class ToyE2E(Workload):
    name = "toy_e2e"
    grid = ("origin", "llm", "llm_C")
    # augment is a ~1.2 s step; one sample of it spreads ~12% across runs
    repeats = {"augment": 5}

    def setup(self, directory, seed):
        data_dir = os.path.join(directory, "data")
        write_dataset(make_toy_tag(seed=2), data_dir, tail_class_count=2)
        return {"dataset_dir": data_dir}

    def config(self, fixture, out_dir):
        return RunConfig(
            dataset_dir=fixture["dataset_dir"],
            out_dir=out_dir,
            seed=4,
            variant="S",
            knn_k=3,
            head_count=20,
            imbalance_ratio=0.1,
            edge_factor=8,
            tau_conf=0.0,
            eval_seeds=(0, 1),
            encoder=EncoderConfig(kind="hashing", dim=256),
            generator=GeneratorConfig(kind="mock", seed=0),
            classifier=TrainConfig(
                epochs=300, learning_rate=0.01, dropout=0.5, hidden_dims=(64, 64), seed=0
            ),
            confidence=_confidence(300),
        )

    def _f1(self, result):
        cells = result["steps"][1]["report"]["cells"]
        return {cell: cells[cell]["metrics"]["macro_f1"]["mean"] for cell in self.grid}

    def check(self, fixture, out_dir, result):
        problems = super().check(fixture, out_dir, result)
        f1 = self._f1(result)
        if not f1["llm_C"] >= f1["llm"] >= f1["origin"]:
            problems.append(f"macro-F1 order broken: {f1}")
        if f1["llm_C"] - f1["origin"] < 0.03:
            problems.append(f"macro-F1 gain below 0.03: {f1}")
        return problems

    def gain(self, result):
        f1 = self._f1(result)
        return f1["llm_C"] - f1["origin"]


class _LargeGraph(Workload):
    # train-eval is a 5-9 s step; one sample of it spreads ~9% across runs
    repeats = {"train_eval": 2}

    def _write_graph(self, directory, seed):
        graph, _parents = sample_tag(LARGE_CLASS_SIZES, seed=seed)
        data_dir = os.path.join(directory, "data")
        write_dataset(graph, data_dir, tail_class_count=LARGE_TAIL_COUNT)
        return graph, data_dir

    def _config(self, fixture, out_dir, **overrides):
        return RunConfig(
            dataset_dir=fixture["dataset_dir"],
            out_dir=out_dir,
            seed=fixture["seed"],
            variant="S",
            knn_k=3,
            head_count=100,
            imbalance_ratio=0.05,
            edge_factor=20,
            tau_conf=0.0,
            eval_seeds=(0,),
            classifier=_train_eval_small(),
            confidence=_confidence(LARGE_CONFIDENCE_EPOCHS),
            **overrides,
        )


class Wiring10k(_LargeGraph):
    name = "wiring_10k"
    capture_confidence = True

    def setup(self, directory, seed):
        _graph, data_dir = self._write_graph(directory, seed)
        return {"dataset_dir": data_dir, "seed": seed}

    def config(self, fixture, out_dir):
        return self._config(
            fixture,
            out_dir,
            edge_strategy="confidence",
            encoder=EncoderConfig(kind="hashing", dim=256),
            generator=GeneratorConfig(kind="mock", seed=0),
        )

    def check(self, fixture, out_dir, result):
        problems = super().check(fixture, out_dir, result)
        cfg = self.config(fixture, out_dir)
        with np.load(os.path.join(out_dir, "embeddings.npz")) as data:
            original, synthetic = data["original"], data["synthetic"]
        kappa_path = os.path.join(out_dir, "kappa.npy")
        if not os.path.exists(kappa_path):
            return problems + ["augment trained no confidence net through train_confidence"]
        kappa = np.load(kappa_path)
        expected = topk_oracle(
            cosine_matrix(synthetic, original) * kappa[None, :],
            len(synthetic) * cfg.edge_factor,
            cfg.tau_conf,
        )
        got = np.zeros_like(expected)
        with open(os.path.join(out_dir, "augmented", "provenance.jsonl"), encoding="utf-8") as fh:
            for row, line in enumerate(fh):
                for target, _score in json.loads(line)["edges"]:
                    got[row, target] = True
        if not np.array_equal(got, expected):
            problems.append(
                f"selected edges differ from brute-force top-k at "
                f"{int((got != expected).sum())} of {expected.size} candidates"
            )
        summary = result["steps"][0]["report"]["edge_assignment"]
        isolated = int((~expected.any(axis=1)).sum())
        if summary["edges_added"] != int(expected.sum()) or summary["isolated"] != isolated:
            problems.append(f"edge summary {summary} disagrees with the oracle")
        return problems


def topk_oracle(scores, k, tau):
    """Boolean (synthetic x original) mask of the k best scores >= tau.

    Ties at the cut go to the lower synthetic index, then the lower
    original id (criterion 5's order), which is row-major order here.
    """
    flat = scores.ravel()
    eligible = np.flatnonzero(flat >= tau)
    chosen = np.zeros(flat.shape, dtype=bool)
    k = min(k, len(eligible))
    if k:
        values = flat[eligible]
        cut = np.partition(values, len(values) - k)[len(values) - k]
        chosen[eligible[values > cut]] = True
        ties = eligible[values == cut]
        chosen[ties[: k - int(chosen.sum())]] = True
    return chosen.reshape(scores.shape)


class _LocalResponse:
    """What requests.post returns, for a reply computed in process."""

    status_code = 200

    def __init__(self, payload):
        self._payload = payload

    @property
    def text(self):
        return json.dumps(self._payload)

    def json(self):
        return self._payload


def _local_post(url, json=None, **_kwargs):
    _delay, respond = stub.ROUTES[urllib.parse.urlsplit(url).path]
    return _LocalResponse(respond(json))


@contextlib.contextmanager
def stub_replies_in_process():
    """Answer requests.post with the stub's replies, without the network."""
    saved = requests.post
    requests.post = _local_post
    try:
        yield
    finally:
        requests.post = saved


def start_stub():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "stub.py"), "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line.strip().isdigit():
        stop_stub(proc)
        raise RuntimeError("stub process did not report its port")
    return proc, f"http://127.0.0.1:{int(line)}"


def stop_stub(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def stub_stats(url):
    with urllib.request.urlopen(url + "/stats", timeout=10) as resp:
        return json.load(resp)


class RemoteResume(_LargeGraph):
    name = "remote_resume"

    def setup(self, directory, seed):
        graph, data_dir = self._write_graph(directory, seed)
        proc, url = start_stub()
        fixture = {
            "dataset_dir": data_dir,
            "seed": seed,
            "stub": proc,
            "url": url,
            "cache": os.path.join(directory, "primed_cache.jsonl"),
        }
        try:
            fixture["primed"] = self._prime(fixture, graph)
        except BaseException:
            stop_stub(proc)
            raise
        return fixture

    def _prime(self, fixture, graph):
        """Generate the first half of the pair schedule into the cache, the
        way a run that crashed halfway would have left it."""
        cfg = self.config(fixture, os.path.dirname(fixture["cache"]))
        labels = list(graph.labels)
        split = make_longtail_split(
            graph,
            head_count=cfg.head_count,
            imbalance_ratio=cfg.imbalance_ratio,
            tail_class_count=LARGE_TAIL_COUNT,
            val_fraction=cfg.val_fraction,
            seed=cfg.seed,
        )
        with stub_replies_in_process():
            emb = encode_texts(graph.texts, cfg.encoder)
            pairs = find_vicinal_twins(
                split, emb, labels, cfg.knn_k,
                target_counts=rebalance_targets(labels, split), variant=cfg.variant,
            )
            half = pairs[: len(pairs) // 2]
            _nodes, stats = generate_interpolations(
                half, cfg.variant, cfg.generator,
                default_prompt_spec(os.path.basename(os.path.normpath(cfg.dataset_dir))),
                graph.texts, graph.class_names, fixture["cache"],
            )
        if stats.generated != len(half):
            raise RuntimeError(f"priming generated {stats.generated} of {len(half)} pairs")
        return len(half)

    def teardown(self, fixture):
        stop_stub(fixture["stub"])

    def config(self, fixture, out_dir):
        return self._config(
            fixture,
            out_dir,
            edge_strategy="duplicate",
            encoder=EncoderConfig(
                kind="remote", endpoint=fixture["url"], model="stub-embed",
                batch_size=16, retry_count=3, retry_backoff=0.01, timeout=10.0,
            ),
            generator=GeneratorConfig(
                kind="remote", endpoint=fixture["url"], model="stub-chat",
                retry_count=3, retry_backoff=0.01, timeout=10.0,
            ),
        )

    def prepare(self, fixture, out_dir):
        super().prepare(fixture, out_dir)
        shutil.copyfile(fixture["cache"], os.path.join(out_dir, "gen_cache.jsonl"))
        stub_stats(fixture["url"])  # restarts the stub's counts

    def finish(self, fixture, result):
        result["served"] = stub_stats(fixture["url"])["served"]

    def check(self, fixture, out_dir, result):
        problems = super().check(fixture, out_dir, result)
        hits = result["steps"][0]["report"]["generation"]["cache_hits"]
        if hits != fixture["primed"]:
            problems.append(f"cache hits {hits} != primed {fixture['primed']}")
        if "counters" in result and result["counters"].get("http.attempts") != result["served"]:
            problems.append(
                f"client made {result['counters'].get('http.attempts')} HTTP attempts, "
                f"stub served {result['served']}"
            )
        return problems


WORKLOADS = {w.name: w for w in (ToyE2E(), Wiring10k(), RemoteResume())}
