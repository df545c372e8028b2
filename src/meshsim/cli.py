"""Command line front end: run one scenario or a full experiment plan."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .core import Algorithm, ConfigError
from .experiments import PlanError, load_plan, run_plan
from .scenario import load_scenario
from .simnet import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="meshsim")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file (or built-in name)")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--algo", choices=[a.value for a in Algorithm], default=None)
    p_run.add_argument("--duration-ms", type=int, default=None)
    p_run.add_argument("--out", type=Path, default=None, help="write the report as JSON")

    p_plan = sub.add_parser("plan", help="run an experiment plan file (or built-in name)")
    p_plan.add_argument("plan")
    p_plan.add_argument("--out-dir", type=Path, required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_plan(args)
    except (ConfigError, PlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    if args.out is not None:
        # an unusable report path fails here, before the run, not after it
        if args.out.is_dir():
            raise IsADirectoryError(f"--out: {args.out} is a directory")
        if not args.out.parent.is_dir():
            raise FileNotFoundError(f"--out: directory {args.out.parent} does not exist")
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    if args.algo is not None:
        config = replace(config, algorithm=Algorithm(args.algo))
    if args.duration_ms is not None:
        config = replace(config, duration_ms=args.duration_ms)
    report = run(config)
    print(f"algorithm={report.algorithm} duration_ms={report.duration_ms} "
          f"seed={report.seed} unique={report.unique_received} "
          f"duplicate={report.duplicate_received} tx={report.tx_total} "
          f"rx={report.rx_total}")
    if args.out is not None:
        args.out.write_text(report.to_json())
        print(f"report written to {args.out}")
    return 0


def _cmd_plan(args) -> int:
    plan = load_plan(args.plan)
    table = run_plan(plan, out_dir=args.out_dir)
    print(table.render_text(), end="")
    print(f"outputs written to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
