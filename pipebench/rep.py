"""One repetition of a workload, in a process of its own.

    python3 pipebench/rep.py SPEC.json

SPEC names the tagaug source directory, a RunConfig as a dict, the steps
to run (``["augment"]`` or ``["train_eval", grid]``), how many times to
call each (``repeats``, by step name; 1 if absent), whether to trace, and
where to write the result. Each call is timed around the public function
(`run_augment` / `run_train_eval`); before every augment call but the
first, the output directory is put back as it was before the first, so
each call does the same work. The result holds, per step, the wall and
CPU time of every call, the first call's report and whether every later
report equals it apart from `timings`; then the process's peak RSS and,
when traced, the span summary, the counters and the names wrapped. A
fresh process per repetition keeps peak RSS to one repetition and keeps
the tracer's rebinding out of untraced runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def _capture_confidence(captured):
    """Keep the confidence net augment trains, for the top-k oracle."""
    from tagaug import edges
    from tracing import package_namespaces, rebind

    original = edges.train_confidence

    def capturing(*args, **kwargs):
        net = original(*args, **kwargs)
        captured.append(net)
        return net

    rebind(package_namespaces(), original, capturing)


def _without_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [spec["src"], HERE]
    import tagaug.pipeline as pipeline

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    captured = []
    if spec.get("capture_confidence"):
        _capture_confidence(captured)

    cfg = pipeline.RunConfig.from_dict(spec["config"])
    repeats = spec.get("repeats", {})
    pristine = cfg.out_dir + ".pristine"
    if repeats.get("augment", 1) > 1:
        shutil.copytree(cfg.out_dir, pristine)
    steps = []
    for step in spec["steps"]:
        entry = {"name": step[0], "wall_s": [], "cpu_s": [], "report": None,
                 "error": None, "reports_agree": True}
        for call in range(repeats.get(step[0], 1)):
            if step[0] == "augment" and call:
                shutil.rmtree(cfg.out_dir)
                shutil.copytree(pristine, cfg.out_dir)
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                if step[0] == "augment":
                    report = pipeline.run_augment(cfg)
                else:
                    report = pipeline.run_train_eval(cfg, grid=tuple(step[1]))
            except Exception:
                entry["error"] = traceback.format_exc()
                break
            finally:
                entry["wall_s"].append(time.perf_counter() - start)
                entry["cpu_s"].append(time.process_time() - cpu_start)
            if call == 0:
                entry["report"] = report
            elif _without_timings(report) != _without_timings(entry["report"]):
                entry["reports_agree"] = False
        steps.append(entry)
    shutil.rmtree(pristine, ignore_errors=True)
    result = {
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["counters"] = tracer.counters
        result["top_level_s"] = tracer.top_level_s()
        result["span_count"] = len(tracer.spans)
        result["wrapped"] = sorted(tracer.wrapped)
    if captured:
        import numpy as np

        with np.load(os.path.join(cfg.out_dir, "embeddings.npz")) as data:
            original = data["original"]
        np.save(os.path.join(cfg.out_dir, "kappa.npy"), captured[0].kappa(original))
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
