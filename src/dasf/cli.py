"""Command-line entry point: run a configured study end to end.

Usage: ``dasf-sim run <config.yaml> [--seed N] [--runs N] [--iters N]
[--out-dir DIR] [--mode MODE]``. Flags override the matching config fields
and pass the same rules. Exit code 0 on success, 2 on config problems, 1 on
runtime failures; errors go to stderr as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import ConfigError, load_config, run_study, validate_config

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dasf-sim",
        description="Distributed signal fusion experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the study described by a config file")
    run_p.add_argument("config", help="path to the YAML experiment config")
    run_p.add_argument("--seed", type=int, help="override run.seed")
    run_p.add_argument("--runs", type=int, help="override run.monte_carlo_runs")
    run_p.add_argument("--iters", type=int, help="override run.iterations")
    run_p.add_argument("--out-dir", help="override output.dir")
    run_p.add_argument("--mode", help="override run.mode (batch or adaptive)")
    return parser


def _fail(kind: str, details: list[str], code: int) -> int:
    json.dump({"error": kind, "details": details}, sys.stderr)
    sys.stderr.write("\n")
    return code


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = validate_config(load_config(args.config)).with_overrides(
            seed=args.seed,
            runs=args.runs,
            iterations=args.iters,
            out_dir=args.out_dir,
            sample_mode=args.mode,
        )
    except ConfigError as exc:
        return _fail("config", list(exc.errors), 2)

    try:
        outcome = run_study(config)
    except Exception as exc:  # surface anything as a runtime failure
        return _fail("runtime", [f"{type(exc).__name__}: {exc}"], 1)

    studies = outcome if isinstance(outcome, list) else [outcome]
    for study in studies:
        print(
            f"filters={study.n_filters} runs={study.run_count}"
            f"{' failed=' + str(len(study.failed)) if study.failed else ''} "
            f"final-error-median={study.epsilon_median[-1]:.6e} "
            f"out={config.out_dir}"
        )
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
