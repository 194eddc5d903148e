"""Command-line front end for the verification campaigns.

Commands
    levels      energy table E_n with the 1/n^2 ratio check
    flatness    quantum potential V_Q against E_n per eigenstate
    bohr-radii  radial-distribution peaks of circular states against n^2 a
    airy        accelerating-packet checks (acceleration, residuals, peaks)
    profile     export a named curve as CSV, JSON, or SVG

Exit status is 0 when every case passes, 1 when any fails, 2 on usage
errors.  All file output is byte-deterministic for a given invocation;
wall-clock timing goes to stderr only.  CSV schemas (comma delimiter, LF
endings, UTF-8, 12 significant digits):

    levels      n,energy,ratio,expected,rel_error,pass
    flatness    case_id,computed,expected,abs_error,rel_error,pass
    bohr-radii  n,r_peak,expected,rel_error,pass
    airy        case_id,computed,expected,abs_error,rel_error,pass
    profile     r|x,value,masked

The environment variable HYDROBOHM_OUT_DIR redirects relative output paths
into the given directory.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time as _time

import numpy as np

from .campaigns import profile_curve, run_airy, run_bohr_radii, run_flatness, run_levels
from .core import atomic_units
from .reports import (
    REPORT_HEADER,
    VerificationReport,
    format_number,
    report_rows,
    write_csv,
    write_json,
    write_svg,
)

__all__ = ["main"]

OUT_DIR_ENV = "HYDROBOHM_OUT_DIR"

# Largest --n-max of flatness and bohr-radii: the normalization of the state
# (n, n - 1) needs ln((2n - 1)!), and ln_factorial covers k <= 200.
STATE_N_MAX = 100

# argparse reads a value that starts with '-' as an option unless it is a
# plain negative number, so `--times -1,0.5` and `--time -1e-3` are joined
# into `--times=-1,0.5` and `--time=-1e-3` before parsing.
_SIGNED_VALUE_OPTIONS = ("--times", "--time")
_SIGNED_VALUE = re.compile(r"-\.?\d")


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _cell(value) -> str:
    """One table cell, the same on stdout and in CSV."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_number(value)


def _finish(args: argparse.Namespace, report: VerificationReport, table=None, csv_table=None) -> int:
    """Print the table and the summary, write --out, return the exit status.

    table is (column names, rows of raw values): it is printed and becomes
    the JSON payload's "table".  The CSV file holds csv_table, or the
    report's generic case rows when none is given.
    """
    if table is not None:
        columns, rows = table
        print(",".join(columns))
        for row in rows:
            print(",".join(_cell(value) for value in row))
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        path = _resolve_out(args.out)
        if args.format == "json":
            payload = {"report": report.to_dict()}
            if table is not None:
                payload["table"] = [dict(zip(columns, row)) for row in rows]
            write_json(path, payload)
        else:
            header, csv_rows = csv_table or (REPORT_HEADER, report_rows(report))
            write_csv(path, header, [[_cell(value) for value in row] for row in csv_rows])
    return 0 if report.all_passed else 1


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        times = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time list {text!r}") from exc
    if not times:
        raise argparse.ArgumentTypeError("at least one time is required")
    return times


def _parse_state(text: str):
    if text.strip() == "airy":
        return "airy"
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("state must be n,l,m or 'airy'")
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad state {text!r}") from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _state_n_max(text: str) -> int:
    value = _positive_int(text)
    if value > STATE_N_MAX:
        raise argparse.ArgumentTypeError(f"must be <= {STATE_N_MAX}, got {value}")
    return value


def _join_signed_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_VALUE_OPTIONS and _SIGNED_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def cmd_levels(args: argparse.Namespace) -> int:
    report, rows = run_levels(args.n_max, atomic_units(), args.tol)
    columns = ["n", "energy", "ratio", "expected"]
    csv_rows = [row + (case.rel_error, case.passed) for row, case in zip(rows, report.cases)]
    return _finish(args, report, (columns, rows), (columns + ["rel_error", "pass"], csv_rows))


def cmd_flatness(args: argparse.Namespace) -> int:
    report = run_flatness(
        args.n_max, atomic_units(), policy=args.policy, method=args.method, tolerance=args.tol
    )
    return _finish(args, report)


def cmd_bohr_radii(args: argparse.Namespace) -> int:
    report, rows = run_bohr_radii(args.n_max, atomic_units(), args.tol)
    table = (["n", "r_peak", "expected", "rel_error", "pass"], rows)
    return _finish(args, report, table, table)


def cmd_airy(args: argparse.Namespace) -> int:
    report, rows = run_airy(args.strength, args.times, atomic_units(), args.tol)
    return _finish(args, report, (["t", "x_peak", "expected"], rows))


def cmd_profile(args: argparse.Namespace) -> int:
    curve = profile_curve(
        args.state, args.quantity, atomic_units(), strength=args.strength, time=args.time
    )
    path = _resolve_out(args.out)
    coord_name = "x" if args.state == "airy" else "r"
    if args.format == "svg":
        write_svg(
            path,
            curve.coords,
            curve.values,
            curve.title,
            curve.x_label,
            curve.y_label,
            mask=curve.masked,
        )
    elif args.format == "json":
        write_json(
            path,
            {
                "title": curve.title,
                "x_label": curve.x_label,
                "y_label": curve.y_label,
                "rows": [
                    {coord_name: float(c), "value": None if bad else float(v), "masked": bool(bad)}
                    for c, v, bad in zip(curve.coords, curve.values, curve.masked)
                ],
            },
        )
    else:
        rows = []
        for c, v, bad in zip(curve.coords, curve.values, curve.masked):
            rows.append(
                [
                    format_number(c),
                    "" if bad or not np.isfinite(v) else format_number(v),
                    "true" if bad else "false",
                ]
            )
        write_csv(path, [coord_name, "value", "masked"], rows)
    print(f"wrote {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrobohm",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--tol", type=_positive_float, default=None)
    output.add_argument("--format", choices=("csv", "json"), default="csv")
    output.add_argument("--out", default=None)

    p_levels = sub.add_parser("levels", parents=[output], help="energy table with the 1/n^2 ratio check")
    p_levels.add_argument("--n-max", type=_positive_int, required=True)
    p_levels.set_defaults(run=cmd_levels)

    p_flat = sub.add_parser("flatness", parents=[output], help="V_Q = E_n check per eigenstate")
    p_flat.add_argument("--n-max", type=_state_n_max, required=True)
    group = p_flat.add_mutually_exclusive_group()
    group.add_argument("--all-lm", dest="policy", action="store_const", const="all-lm")
    group.add_argument("--circular", dest="policy", action="store_const", const="circular")
    p_flat.add_argument("--method", choices=("analytic", "fd"), default="analytic")
    p_flat.set_defaults(policy="all-lm", run=cmd_flatness)

    p_bohr = sub.add_parser("bohr-radii", parents=[output], help="P_{n,n-1} peak against n^2 a")
    p_bohr.add_argument("--n-max", type=_state_n_max, required=True)
    p_bohr.set_defaults(run=cmd_bohr_radii)

    p_airy = sub.add_parser("airy", parents=[output], help="accelerating-packet checks")
    p_airy.add_argument("--B", dest="strength", type=_positive_float, default=1.0)
    p_airy.add_argument("--times", type=_parse_times, default=(0.0, 0.3, 1.0))
    p_airy.set_defaults(run=cmd_airy)

    p_prof = sub.add_parser("profile", help="export a named curve")
    p_prof.add_argument("--state", type=_parse_state, required=True, help="n,l,m or 'airy'")
    p_prof.add_argument(
        "--quantity", choices=("P", "V", "V_bohm", "V_q", "j", "residual"), default="P"
    )
    p_prof.add_argument("--B", dest="strength", type=_positive_float, default=1.0)
    p_prof.add_argument("--time", type=float, default=0.0)
    p_prof.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(run=cmd_profile)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_join_signed_values(argv))
    started = _time.perf_counter()
    try:
        status = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall time: {_time.perf_counter() - started:.3f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
