"""Command-line interface.

Subcommands:
  run <scenario>          execute a scenario plan, print one line per record
  sweep <scenario>        execute and write the CSV report
  check [--seed --size]   run the seeded invariant corpus
  rate <csv> --column C   fit a log-log convergence slope to a CSV column
  plot-script <csv>       emit a gnuplot script for a CSV column

Exit codes: 0 success, 1 assertion or invariant failure, 2 configuration
error (unreadable files, schema violations, bad arguments).
"""

from __future__ import annotations

import argparse
import sys

from .corpus import build_scenario, check_suite, run_battery
from .errors import InvariantViolation, ValidationError
from .scenario import load_scenario
from .sweep import csv_columns, fit_rate, read_csv, run_sweep, write_csv

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2


def _print_records(records, out):
    header = f"{'N':>6} {'mesh':>12} {'trace_dist':>13} {'trace_bound':>13} {'entropy':>13} {'entropy_gap':>13}"
    print(header, file=out)
    for r in records:
        print(
            f"{r.n:>6} {r.mesh:>12.6g} {r.trace_distance:>13.6g} {r.trace_bound:>13.6g} "
            f"{r.entropy:>13.6g} {r.entropy_gap:>13.6g}",
            file=out,
        )


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    records = run_sweep(scenario)
    _print_records(records, sys.stdout)
    if scenario.output:
        write_csv(records, scenario.output)
        print(f"wrote {len(records)} records to {scenario.output}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    output = args.output or scenario.output
    if not output:
        raise ValidationError("no output path: pass --output or set \"output\" in the scenario")
    records = run_sweep(scenario)
    write_csv(records, output)
    print(f"wrote {len(records)} records to {output}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.replay is not None:
        report = run_battery(build_scenario(args.replay))
        print(report.render())
        return EXIT_OK if report.passed else EXIT_INVARIANT
    result = check_suite(master_seed=args.seed, size=args.size)
    sys.stdout.write(result.render())
    return EXIT_OK if result.passed else EXIT_INVARIANT


def _cmd_rate(args) -> int:
    records = read_csv(args.csv)
    fit = fit_rate(records, args.column)
    print(f"column={args.column} points={fit.points}")
    print(f"slope={fit.slope:.6g} intercept={fit.intercept:.6g} residual_norm={fit.residual_norm:.6g}")
    return EXIT_OK


def _cmd_plot_script(args) -> int:
    records = read_csv(args.csv)
    dim = records[0].dim
    columns = csv_columns(dim)
    if args.column not in columns:
        raise ValidationError(f"column {args.column!r} not in {args.csv}")
    idx = columns.index(args.column) + 1
    script = "\n".join(
        [
            "set datafile separator ','",
            "set datafile commentschars '#'",
            "set logscale xy",
            "set xlabel 'N'",
            f"set ylabel '{args.column}'",
            f"plot '{args.csv}' every ::1 using 1:{idx} with linespoints title '{args.column}'",
            "",
        ]
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(script)
        print(f"wrote gnuplot script to {args.output}")
    else:
        sys.stdout.write(script)
    return EXIT_OK


def _int_at_least(least: int):
    """An argparse type: an integer >= least, else argparse's usage error and exit 2."""
    def integer(text: str) -> int:  # argparse names it for text that is no integer
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zenolab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and print its records")
    p_run.add_argument("scenario")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="execute a scenario and write the CSV report")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--output", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check", help="run the seeded invariant corpus")
    p_check.add_argument("--seed", type=_int_at_least(0), default=42)
    p_check.add_argument("--size", type=_int_at_least(1), default=200)
    p_check.add_argument("--replay", type=_int_at_least(0), default=None, metavar="SCENARIO_SEED",
                         help="rerun a single scenario by its reported seed")
    p_check.set_defaults(func=_cmd_check)

    p_rate = sub.add_parser("rate", help="fit a log-log convergence slope")
    p_rate.add_argument("csv")
    p_rate.add_argument("--column", required=True)
    p_rate.set_defaults(func=_cmd_rate)

    p_plot = sub.add_parser("plot-script", help="emit a gnuplot script for a CSV column")
    p_plot.add_argument("csv")
    p_plot.add_argument("--column", required=True)
    p_plot.add_argument("--output", default=None)
    p_plot.set_defaults(func=_cmd_plot_script)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValidationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
