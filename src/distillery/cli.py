"""Command-line entry point: `distillery <experiment> [options]`.

Subcommands: synthetic | mnist | cifar | multitask.  Each runs the
experiment, prints a per-arm summary, and optionally writes a CSV or
JSON report (--out/--format).  Exit code 0 on success; on failure a
single line `error: <type>: <message>` goes to stderr and the exit code
is nonzero.  Dataset locations come from --data-dir or the
DISTILLERY_DATA_DIR environment variable.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .core import parse_number
from .experiments import RUNNERS, emit_report
from .synthetic import SyntheticSpec


def _number(parse):
    """An argparse type reading `parse` (int or float) through parse_number,
    so that `٠`, `4_0` and ` 1` are refused: `argument --reps: invalid int
    value: '4_0'`."""
    def number(text: str):
        return parse_number(text, parse)

    number.__name__ = parse.__name__  # argparse names the type by it
    return number


INT, FLOAT = _number(int), _number(float)


def _grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(parse_number(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distillery",
        description="Teacher-student distillation experiments (privileged/regular/distilled arms). "
        "An option left out takes the default of the experiment's run_* function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=INT, help="master seed")
        p.add_argument("--out", help="report file to write")
        p.add_argument("--format", choices=("csv", "json"),
                       help="report format (default csv); needs --out")

    p = sub.add_parser("synthetic", help="synthetic setups 1-4, three arms")
    p.add_argument("--experiment", type=INT, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--reps", type=INT, help="repetitions")
    p.add_argument("--T", dest="temperature", type=FLOAT, help="soft-label temperature")
    p.add_argument("--lambda", dest="imitation", type=FLOAT, help="imitation weight in [0,1]")
    p.add_argument("--n-train", type=INT)
    p.add_argument("--n-test", type=INT)
    common(p)

    p = sub.add_parser("mnist", help="28x28 teacher distilled into a 7x7 student")
    p.add_argument("--n-train", type=INT, help="training samples")
    p.add_argument("--reps", type=INT)
    p.add_argument("--T", dest="T_grid", type=_grid, help="temperature grid, e.g. 1,2,5")
    p.add_argument("--lambda", dest="lambda_grid", type=_grid, help="imitation grid, e.g. 0,0.5,1")
    p.add_argument("--data-dir", help="directory holding the IDX files")
    common(p)

    p = sub.add_parser("cifar", help="semi-supervised distillation on noisy images")
    p.add_argument("--n-labeled", type=INT)
    p.add_argument("--sigma", type=FLOAT, help="pixel noise std")
    p.add_argument("--max-unlabeled", type=INT, help="subsample the soft-labeled pool")
    p.add_argument("--reps", type=INT)
    p.add_argument("--T", dest="T_grid", type=_grid)
    p.add_argument("--lambda", dest="lambda_grid", type=_grid)
    p.add_argument("--data-dir", help="directory holding the CIFAR-10 binary batches")
    common(p)

    p = sub.add_parser("multitask", help="per-task teachers over a 21+7 column table")
    p.add_argument("--path", required=True, help="delimiter-separated table file")
    p.add_argument("--n-train", type=INT)
    p.add_argument("--test-cap", type=INT)
    p.add_argument("--delimiter", help="cell delimiter")
    p.add_argument("--T", dest="T_grid", type=_grid)
    p.add_argument("--lambda", dest="lambda_grid", type=_grid)
    common(p)

    return parser


def _dispatch(args):
    """Call the subcommand's runner with the options given, named like its parameters."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    if args.command == "synthetic":
        sizes = {k: given.pop(k) for k in ("n_train", "n_test") if k in given}
        given["spec"] = SyntheticSpec(args.experiment, **sizes)
    runner = RUNNERS[args.command]
    params = inspect.signature(runner).parameters
    return runner(**{k: v for k, v in given.items() if k in params})


def _summarize(report) -> str:
    lines = [f"{report.experiment_id}: status={report.status} seed={report.master_seed}"]
    for r in report.results:
        if "/" in r.arm:
            continue  # per-task detail stays in the report file
        cell = ""
        if r.temperature is not None:
            cell = f" T={r.temperature:g} lambda={r.imitation:g}"
        lines.append(f"  {r.arm}{cell}: {r.metric} {r.mean:.4f} +- {r.std:.4f} ({r.reps} reps)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format and not args.out:
        parser.error("argument --format: not allowed without argument --out")
    try:
        report = _dispatch(args)
        if args.out:
            emit_report(report, args.format or "csv", args.out)
        print(_summarize(report))
        if report.errors:
            for e in report.errors:
                print(f"warning: {e}", file=sys.stderr)
        return 0
    except BrokenPipeError:
        raise
    except Exception as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
