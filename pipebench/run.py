"""Pipeline benchmark for tagaug: augment + train-eval, timed from outside.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports tagaug from ./src and works
under ./.pipebench_work, which it removes when it ends.

A run builds the workload's inputs from the seed several times (SETUPS,
more when that takes under SETUP_MIN_S) and reports the median as
setup_s. It then runs repetitions, each in a fresh process (rep.py),
until the next one would end after --seconds (at least one):

- --trace 0: untraced repetitions; the end-to-end metrics are medians
  over them. In each, a workload calls its short step several times
  (Workload.repeats) and the step's time is the median over the calls.
- --trace 1: one untraced and one traced repetition; the per-layer
  metrics come from the traced one, and trace.overhead_s is its
  augment + train-eval wall time minus the untraced one's.

Every repetition's outputs are checked (see workloads.py). Repeated
calls within a repetition, and all repetitions of a run, must produce
the same reports apart from timings.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics (each {"value", "unit"}). Lines before it describe the
environment and the samples behind each median.

failed_frac and macro_f1_gain carry a base of 1 so they are never zero:
failed_frac is 1 + failed / attempted, where an operation is one pipeline
command or one scheduled generation pair, and a command that raised or a
pair that was skipped fails it (an HTTP call retried and then answered is
no failure). macro_f1_gain is 1 + (llm_C - origin mean macro-F1), and
the gain is 0 on workloads whose train-eval has no augmented cell.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")
# Set-up is repeated at least SETUPS times and until SETUP_MIN_S have
# passed, so the cheap toy set-up still gets a steady median.
SETUPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX = 25
# A run must end within 180 s; a repetition still going at this point is
# killed and the run fails.
RUN_LIMIT_S = 170
# Share of a pipeline span its direct child spans may leave uncovered.
CHILD_SLACK = 0.05


def step_wall(step):
    """A step's time in one repetition: the median over its calls."""
    return statistics.median(step["wall_s"])


def per_layer_metrics(result, untraced):
    """Per-layer metrics from a traced repetition's spans and counters, and
    the span names they read that the tracer found nothing to wrap for.

    A span that was wrapped but never called reads 0; one whose function
    is gone from tagaug is reported, so a renamed or deleted function
    fails the run instead of looking like a function that got free.
    Counters come from wrappers that tracing.install() refuses to miss.
    """
    spans, counters, wrapped = result["spans"], result["counters"], set(result["wrapped"])
    gone = set()

    def span(name, stat="s"):
        if name not in wrapped:
            gone.add(name)
        return spans.get(name, {}).get(stat, 0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in ("kernels.csr_matmul", "neural.dropout_mask", "neural.train_classifier",
                 "edges.duplicate_edges"):
        put(f"{name}.s", span(name), "s")
        put(f"{name}.calls", span(name, "calls"), "count")
    put("kernels.csr_matmul.flops", counters.get("kernels.csr_matmul.flops", 0), "flop_computed")
    put("kernels.csr_matmul.bytes", counters.get("kernels.csr_matmul.bytes", 0), "B_computed")
    for name in ("neural.train_classifier", "pipeline.run_augment", "pipeline.run_train_eval"):
        put(f"{name}.self_s", span(name, "self_s"), "s")
    for name in ("neural.backward", "neural.forward", "neural.masked_cross_entropy",
                 "edges.train_confidence", "edges.score_edges", "edges.select_topk_global",
                 "edges.assign_edges", "embedding.encode_texts",
                 "generation.find_vicinal_twins", "generation.generate_interpolations",
                 "graph.load_dataset", "graph.write_dataset", "graph.merge_augmented",
                 "graph.normalized_adjacency", "pipeline.run_augment",
                 "pipeline.run_train_eval"):
        put(f"{name}.s", span(name), "s")
    for name in ("edges.candidates", "edges.edges_added", "edges.isolated",
                 "embedding.encode_texts.rows", "http.attempts", "http.retried"):
        put(name, counters.get(name, 0), "count")
    put("embedding.cosine_similarity.calls", span("embedding.cosine_similarity", "calls"), "count")
    pairs = counters.get("generation.pairs_total", 0)
    put("generation.cache_hit_ratio",
        counters.get("generation.cache_hits", 0) / pairs if pairs else 0.0, "ratio")
    put("http.s", span("http.post"), "s")
    put("metrics.boundary.s", sum(
        span(f"metrics.{name}")
        for name in ("bcr", "bps", "icr", "build_manifold_index")), "s")
    traced_s = sum(step_wall(step) for step in result["steps"])
    untraced_s = sum(step_wall(step) for step in untraced["steps"])
    put("trace.overhead_s", traced_s - untraced_s, "s")
    put("trace.top_level_s", result["top_level_s"], "s")
    put("trace.spans", result["span_count"], "count")
    put("stub.served", result.get("served", 0), "count")
    return out, sorted(gone)


def trace_problems(traced, untraced, metrics):
    """Do the spans account for the untraced run's time?

    The top-level spans are the wrapped run_augment / run_train_eval calls,
    so the first check is a wrapper sanity check: they must match the
    untraced wall time to within the tracing overhead. The second looks
    one level down: each pipeline span's direct children (the layers'
    public functions) must cover all of it but CHILD_SLACK, so time spent
    outside every layer span cannot grow unseen.
    """
    problems = []
    untraced_s = sum(step_wall(s) for s in untraced["steps"])
    gap = traced["top_level_s"] - untraced_s
    if abs(gap) > abs(metrics["trace.overhead_s"]["value"]) + 0.005 * untraced_s:
        problems.append(
            f"top-level spans differ from the untraced run by {gap:.3f} s, "
            "more than the tracing overhead"
        )
    for step in traced["steps"]:
        name = f"pipeline.run_{step['name']}"
        total, own = metrics[f"{name}.s"]["value"], metrics[f"{name}.self_s"]["value"]
        if own > CHILD_SLACK * total:
            problems.append(
                f"{name}: {own:.3f} s of {total:.3f} s is outside every layer span "
                f"(more than {CHILD_SLACK:.0%})"
            )
    return problems


def environment():
    import numpy
    import scipy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    try:
        from tagaug.kernels import active_backend

        backend = active_backend()
    except ImportError:
        backend = None
    return {
        "blas_threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
        "kernel_backend": backend,
    }


def run_repetition(workload, fixture, out_dir, trace, index, deadline):
    shutil.rmtree(out_dir, ignore_errors=True)
    workload.prepare(fixture, out_dir)
    spec_path = os.path.join(WORK, f"spec{index}.json")
    result_path = os.path.join(WORK, f"result{index}.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({
            "src": SRC,
            "config": workload.config(fixture, out_dir).to_dict(),
            "steps": workload.steps(),
            "repeats": {} if trace else workload.repeats,
            "trace": trace,
            "capture_confidence": workload.capture_confidence,
            "result": result_path,
        }, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), spec_path],
        check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    workload.finish(fixture, result)
    return result


def strip_timings(report):
    if report is None:
        return None
    return {k: v for k, v in report.items() if k != "timings"}


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def outputs_digest(out_dir):
    augmented = os.path.join(out_dir, "augmented")
    return {
        name: file_digest(os.path.join(augmented, name))
        for name in sorted(os.listdir(augmented))
    } if os.path.isdir(augmented) else None


def measure(workload, args):
    setup_times, fixture = [], None
    while len(setup_times) < SETUPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX
    ):
        if fixture is not None:
            workload.teardown(fixture)
        directory = os.path.join(WORK, f"setup{len(setup_times)}")
        start = time.perf_counter()
        fixture = workload.setup(directory, args.seed)
        setup_times.append(time.perf_counter() - start)
    try:
        out_dir = os.path.join(WORK, "out")
        results, problems, signatures = [], [], []
        plan = [False, True] if args.trace else None
        started = time.perf_counter()
        while True:
            trace = plan[len(results)] if plan else False
            rep_start = time.perf_counter()
            result = run_repetition(
                workload, fixture, out_dir, trace, len(results), args.deadline
            )
            errors = [s["error"] for s in result["steps"] if s["error"]]
            problems += errors or [
                f"repetition {len(results)}: {p}"
                for p in workload.check(fixture, out_dir, result)
            ] + [
                f"repetition {len(results)}: repeated {s['name']} calls disagree on the report"
                for s in result["steps"] if not s["reports_agree"]
            ]
            signatures.append((
                [strip_timings(s["report"]) for s in result["steps"]],
                outputs_digest(out_dir),
                result.get("served"),
            ))
            results.append(result)
            elapsed = time.perf_counter() - started
            if plan:
                if len(results) == len(plan):
                    break
            elif elapsed + (time.perf_counter() - rep_start) > args.seconds:
                break
        if any(sig != signatures[0] for sig in signatures[1:]):
            problems.append("repetitions disagree on reports, outputs or HTTP requests served")
    finally:
        workload.teardown(fixture)
    return setup_times, results, problems


def end_to_end_metrics(workload, setup_times, results, attempted, failed):
    median_of = statistics.median

    def wall(name):
        return median_of([step_wall(s) for r in results for s in r["steps"] if s["name"] == name])

    complete = all(s["report"] is not None for s in results[0]["steps"])
    gain = workload.gain(results[0]) if complete else 0.0
    values = {
        "setup_s": (median_of(setup_times), "s"),
        "augment_s": (wall("augment"), "s"),
        "train_eval_s": (wall("train_eval"), "s"),
        "peak_rss_mb": (median_of([r["peak_rss_mb"] for r in results]), "MB"),
        "macro_f1_gain": (1.0 + gain, "F1_plus1"),
        "failed_frac": (1.0 + failed / attempted, "ratio_plus1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description="tagaug pipeline benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(SRC, "tagaug", "__init__.py")):
        print(f"tagaug sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        setup_times, results, problems = measure(workload, args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = failed = 0
    for result in results:
        for step in result["steps"]:
            attempted += len(step["wall_s"])
            failed += step["error"] is not None
        augment = result["steps"][0]
        if augment["report"] is not None:
            calls = len(augment["wall_s"])
            attempted += calls * augment["report"]["generation"]["pairs_total"]
            failed += calls * len(augment["report"]["generation"]["skipped"])
    if args.trace:
        untraced, traced = results
        metrics, gone = per_layer_metrics(traced, untraced)
        problems += [
            f"tagaug has no {name} to trace; the per-layer metrics read from it are void"
            for name in gone
        ]
        problems += trace_problems(traced, untraced, metrics)
    else:
        metrics = end_to_end_metrics(workload, setup_times, results, attempted, failed)

    print(json.dumps({"environment": environment()}, sort_keys=True))
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "setup_samples_s": setup_times,
        "repetitions": [
            {s["name"]: {"wall_s": s["wall_s"], "cpu_s": s["cpu_s"]} for s in r["steps"]}
            | {"traced": "spans" in r}
            for r in results
        ],
    }, sort_keys=True))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
