"""Command-line entry point.

Subcommands: run an experiment spec, and compare two results directories.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .harness import MetricsSeries, compare_runs, run_experiment, spec_from_dict
from .model import AlgorithmConfig, ConfigError


def _add_cfg_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per AlgorithmConfig field, typed like its default."""
    for f in fields(AlgorithmConfig):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name,
                            type=type(f.default), default=None)


def _load_spec(path: str, args) -> "ExperimentSpec":
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read spec ({exc.strerror})") from None
    except ValueError as exc:  # bad JSON, or bytes that are not text
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: the spec's top level is not a JSON object")
    overrides = {f.name: getattr(args, f.name) for f in fields(AlgorithmConfig)
                 if getattr(args, f.name) is not None}
    if overrides and isinstance(raw.get("cfg", {}), dict):
        raw["cfg"] = {**raw.get("cfg", {}), **overrides}
    if args.algorithm:
        raw["algorithm"] = args.algorithm
    if args.periods is not None:
        raw["periods"] = args.periods
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.output:
        raw["output_dir"] = args.output
    return spec_from_dict(raw)


def _cmd_run(args) -> int:
    spec = _load_spec(args.spec, args)
    try:
        result = run_experiment(spec, progress=not args.quiet)
    except OSError as exc:
        raise ConfigError(f"{spec.output_dir}: cannot write results "
                          f"({exc.strerror})") from None
    m = result.metrics
    print(f"algorithm={spec.algorithm} periods={len(m)}")
    print(f"mean std_busy      {m.mean_std_busy:.6f}")
    print(f"mean over_busy     {m.mean_over_busy:.6f}")
    print(f"mean step seconds  {m.mean_step_seconds:.6f}")
    print(f"min coverage       {m.min_coverage:.6f}")
    if spec.output_dir or args.output:
        print(f"results written to {args.output or spec.output_dir}")
    return 0


def _cmd_compare(args) -> int:
    runs = []
    for directory in (args.dir_a, args.dir_b):
        try:
            run = MetricsSeries.from_csv(Path(directory) / "metrics.csv")
        except OSError as exc:
            raise ConfigError(f"{directory}: cannot read metrics.csv "
                              f"({exc.strerror})") from None
        except ValueError as exc:
            raise ConfigError(f"{directory}: metrics.csv: {exc}") from None
        if not len(run):
            raise ConfigError(f"{directory}: metrics.csv holds no period")
        runs.append(run)
    try:
        report = compare_runs(*runs)
    except ValueError as exc:
        raise ConfigError(f"{args.dir_a} vs {args.dir_b}: {exc}") from None
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breathenet",
        description="Busy-degree balancing simulator for breathing "
                    "cellular networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec (JSON)")
    p_run.add_argument("spec")
    p_run.add_argument("--output", "-o", default=None,
                       help="results directory (overrides the spec)")
    p_run.add_argument("--algorithm", choices=("none", "bdba", "bfdba"),
                       default=None)
    p_run.add_argument("--periods", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--quiet", action="store_true")
    _add_cfg_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="compare two results directories")
    p_cmp.add_argument("dir_a")
    p_cmp.add_argument("dir_b")
    p_cmp.set_defaults(handler=_cmd_compare)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Bad input (a ``ConfigError``) ends it with
    argparse's one-line ``error:`` message and exit status 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
