"""Command-line interface: `maler run ...` and `maler certify --trace FILE`."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .universal import LEARNERS, AssumptionViolation


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subparsers too, whose usage error is one `error:` line, exit 1."""

    def error(self, message):
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maler", description="universal online learning benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run learners on one task and write results")
    run.add_argument("--task", choices=("regression", "classification"))
    run.add_argument("--algos", help="comma-separated subset of " + ",".join(LEARNERS))
    run.add_argument("--rounds", type=int)
    run.add_argument("--dim", type=int)
    run.add_argument("--batch", type=int)
    run.add_argument("--lambda", dest="ridge_lambda", type=float)
    run.add_argument("--noise-std", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--data", help="LIBSVM file (classification)")
    run.add_argument("--radius", type=float, help="decision-ball radius (classification)")
    run.add_argument("--out", help="output directory")
    run.add_argument("--svg", action="store_true", help="also write a regret plot")
    run.set_defaults(**{f.name: f.default for f in dataclasses.fields(harness.ExperimentConfig)})

    cert = sub.add_parser("certify", help="re-run all certificates on a saved trace")
    cert.add_argument("--trace", required=True, help="trace JSON written by `run`")
    return parser


def run_config(args) -> harness.ExperimentConfig:
    """The ExperimentConfig of a parsed `run` command line; --algos is split on commas,
    dropping empty entries, so a value of only commas names no algo."""
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(harness.ExperimentConfig)}
    if args.algos is not None:
        fields["algos"] = tuple(a for a in args.algos.split(",") if a)
    return harness.ExperimentConfig(**fields)


def cmd_run(args) -> int:
    cfg = run_config(args)
    if not cfg.algos:
        print(f"error: --algos {args.algos!r} names no algo; known: {', '.join(LEARNERS)}",
              file=sys.stderr)
        return 1
    try:
        result = harness.run_experiment(cfg)
    except (ValueError, AssumptionViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(harness._report_text(result), end="")
    if not args.out:
        print("(no --out directory given; results not written)")
    else:
        for f in result.files:
            print(f"wrote {f}")
    all_ok = all(rep.ok for reports in result.certificates.values() for rep in reports)
    return 0 if all_ok else 2


def cmd_certify(args) -> int:
    try:
        trace = harness.load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load trace: {exc}", file=sys.stderr)
        return 1
    reports, ok = harness.certify_trace(trace)
    print("\n".join(harness.certify_lines(trace.algo, reports)))
    return 0 if ok else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # the parser has printed its usage error or --help
        return 1 if exc.code else 0  # exit status 2 is kept for a failed certificate
    if args.command == "run":
        return cmd_run(args)
    return cmd_certify(args)


if __name__ == "__main__":
    sys.exit(main())
