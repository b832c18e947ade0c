"""Command-line interface: augment, train-eval, verify, stats.

A JSON config file mirrors RunConfig field names; flags override the
file. The remote API key is read from the environment variable named in
the encoder/generator config and is never logged.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields

from . import schema
from .embedding import EncoderConfig
from .generation import GeneratorConfig
from .graph import DatasetError, graph_stats
from .pipeline import RunConfig, check_grid, load_split
from .pipeline import run_augment, run_train_eval, run_verify


def _load_config(args):
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object")
    flags = {"data": "dataset_dir", "out": "out_dir", "seed": "seed", "variant": "variant",
             "edge": "edge_strategy"}
    for flag, key in flags.items():
        if getattr(args, flag, None) is not None:
            data[key] = getattr(args, flag)
    for part in ("generator", "encoder"):
        kind = getattr(args, part, None)
        if kind:
            data[part] = {**data.get(part, {}), "kind": "hashing" if kind == "hash" else kind}
    if "seed" not in data:
        raise ValueError("a seed is required (--seed or config)")
    if "dataset_dir" not in data or "out_dir" not in data:
        raise ValueError("dataset_dir and out_dir are required (--data/--out or config)")
    return RunConfig.from_dict(data)


def _choices(config, name):
    """The choices config declares for its field name."""
    return next(f for f in fields(config) if f.name == name).metadata["choices"]


def _add_common(parser):
    parser.add_argument("--config", help="JSON config mirroring RunConfig fields")
    parser.add_argument("--data", help="dataset directory")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="tagaug")
    sub = parser.add_subparsers(dest="command", required=True)

    p_aug = sub.add_parser("augment", help="generate synthetic nodes and edges")
    _add_common(p_aug)
    p_aug.add_argument("--variant", choices=_choices(RunConfig, "variant"))
    p_aug.add_argument("--edge", choices=_choices(RunConfig, "edge_strategy"))
    p_aug.add_argument("--generator", choices=_choices(GeneratorConfig, "kind"))
    p_aug.add_argument("--encoder", choices=[
        "hash" if kind == "hashing" else kind for kind in _choices(EncoderConfig, "kind")])

    p_eval = sub.add_parser("train-eval", help="train/evaluate the ablation grid")
    _add_common(p_eval)
    p_eval.add_argument(
        "--grid",
        default="origin,llm,llm_C",
        help="comma-separated cells from origin,num,num_C,llm,llm_C",
    )

    p_verify = sub.add_parser("verify", help="run the theory checks")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)

    p_stats = sub.add_parser("stats", help="summarize a dataset directory")
    p_stats.add_argument("--data", required=True)
    p_stats.add_argument("--head-count", type=int, default=20)
    p_stats.add_argument("--imbalance-ratio", type=float, default=0.1)
    p_stats.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except DatasetError as exc:
        # A refused dataset or artifact: one line and exit 1, no traceback.
        print(f"tagaug {args.command}: error: {exc}", file=sys.stderr)
        return 1


def _run(args):
    """The command args names; its exit status."""
    # A bad config, grid or split setting is a usage error: one line and
    # exit 2, as argparse does for a bad flag, before any stage runs.
    try:
        if args.command in ("augment", "train-eval"):
            cfg = _load_config(args)
        if args.command == "train-eval":
            grid = tuple(cell.strip() for cell in args.grid.split(",") if cell.strip())
            check_grid(grid)
        if args.command == "verify":
            schema.check("seed", args.seed, int, "[0, inf)")
        if args.command == "stats":
            # stats writes nothing, so the out_dir is unused.
            cfg = RunConfig(args.data, "", args.seed, head_count=args.head_count,
                            imbalance_ratio=args.imbalance_ratio)
    except (OSError, TypeError, ValueError) as exc:
        print(f"tagaug {args.command}: error: {exc}", file=sys.stderr)
        return 2

    if args.command == "augment":
        report = run_augment(cfg)
        print(json.dumps({k: report[k] for k in ("synthetic_count", "edge_assignment")}))
        return 0

    if args.command == "train-eval":
        report = run_train_eval(cfg, grid=grid)
        for cell in grid:
            metrics = report["cells"][cell]["metrics"]
            line = ", ".join(
                f"{key}={metrics[key]['mean']:.4f}+/-{metrics[key]['std']:.4f}"
                for key in ("acc", "bacc", "macro_f1", "gmean")
            )
            print(f"{cell}: {line}")
        return 0

    if args.command == "verify":
        report = run_verify(seed=args.seed, out_dir=args.out)
        for check in report["checks"]:
            status = "PASS" if check["passed"] else "FAIL"
            print(f"{status} {check['name']}")
        if not report["all_passed"]:
            return 1
        return 0

    if args.command == "stats":
        graph, split, _tail_count = load_split(cfg)
        print(json.dumps(graph_stats(graph, split), indent=2, sort_keys=True))
        return 0

    raise SystemExit(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
