"""Command-line front end for the verification campaigns.

Commands
    levels      energy table E_n with the 1/n^2 ratio check
    flatness    quantum potential V_Q against E_n per eigenstate
    bohr-radii  radial-distribution peaks of circular states against n^2 a
    airy        accelerating-packet checks (acceleration, residuals, peaks)
    profile     export a named curve as CSV, JSON, or SVG

Exit status is 0 when every case passes, 1 when any fails, 2 on usage
errors, an output path that cannot be written among them (a missing
directory, or a directory as the path, is refused before any work).  All
file output is byte-deterministic for a given invocation; wall-clock
timing goes to stderr only.  CSV schemas (comma delimiter, LF endings,
UTF-8, 12 significant digits):

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
import errno
import functools
import math
import os
import re
import sys
import time as _time
from dataclasses import dataclass

from .campaigns import (
    AiryRangeError,
    _PROFILE_QUANTITIES,
    _check_time_ids,
    profile_curve,
    run_airy,
    run_bohr_radii,
    run_flatness,
    run_levels,
)
from .core import quantum_number_violation
from .reports import (
    REPORT_HEADER,
    VerificationReport,
    format_cell,
    write_csv,
    write_json,
    write_profile_csv,
    write_profile_json,
    write_svg,
)

__all__ = ["main"]

OUT_DIR_ENV = "HYDROBOHM_OUT_DIR"


@dataclass(frozen=True)
class Limit:
    """The accepted range [low, high] of one CLI number, and its argparse type.

    uses holds the command lines that read the number, with {} where it goes;
    the option is the token before that one.  An int low makes an integer
    option, a float low a finite float option.
    """

    low: int | float
    high: int | float
    uses: tuple[str, ...]

    def __call__(self, text: str) -> int | float:
        if isinstance(self.low, float):
            value = _finite_float(text)
        else:
            try:
                value = int(text)
            except ValueError:
                raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value > self.high:
            raise argparse.ArgumentTypeError(f"must be <= {self.high:g}, got {value!r}")
        if value < self.low:
            raise argparse.ArgumentTypeError(f"must be >= {self.low:g}, got {value!r}")
        return value


LIMITS = {
    # The normalization of the state (n, n - 1) needs ln((2n - 1)!), and
    # ln_factorial covers k <= 200.  _parse_state checks the n of --state.
    "state": Limit(1, 100, ("flatness --n-max {}", "profile --state {},0,0 --out x.csv")),
    # The peak search reads only the sign of dP/dr and no normalization.  With
    # warnings and numpy floating-point errors raised, run_bohr_radii(10000)
    # passes every case (worst relative error 3.44e-11) in 0.35 s and 34 MB.
    "bohr-radii": Limit(1, 10000, ("bohr-radii --n-max {}",)),
    # The cost is the table: levels --n-max 10000 --format json takes 0.5 s
    # and 64 MB, and at 100000 it takes 5.4 s and 372 MB and writes 36 MB.
    "levels": Limit(1, 10000, ("levels --n-max {}",)),
    # Set by a sweep over every l: at the five-point stencils and h = 10^-2 a
    # each (n, l) with n <= 30 reads at most 3.7e-6 ((29, 0)), a tenth of the
    # 1e-4 tolerance or less.  Past it the margin shrinks ((40, 0) reads
    # 2.0e-5, (50, 0) 2.4e-5), and the grid grows as about 4 n^2 10^2 points
    # per state.  cmd_flatness checks it, since it depends on --method.
    "fd": Limit(1, 30, ("flatness --method fd --n-max {}",)),
    # High: the Euler check's fixed 1e-3 time step costs truncation error
    # that grows with B: at t = 0 the residual stays under 0.6 of the 1e-5
    # tolerance up to B = 100 and first exceeds it at B = 115.75.  Past
    # B = 122 the polar forms at t -+ 5e-4 leave airy_ai's |x| <= 20, and
    # B**3 overflows near 5.6e102.
    # Low: the grids scale as 1/B, so the stencil weight h1 h2 (h1 + h2) of
    # madelung._first_weights grows as 1/B^3.  With numpy's overflow, invalid
    # and divide errors raised, every airy case at times (0, 0.3, 1),
    # (0, 5, 100) and (-1, 0.01) and every profile quantity at t = 0 and 0.5
    # ran clean down to B = 1e-105; the profile residual overflows at
    # 5e-106, and at 6e-107 B^3 is subnormal and the acceleration cases fail.
    # At this limit B^3 = 1e-300 is still normal.
    "B": Limit(1e-100, 100.0, ("airy --B {}", "profile --state airy --B {} --out x.csv")),
}

# argparse reads a value that starts with '-' as an option unless it is a
# plain negative number, so `--times -1,0.5` and `--time -1e-3` are joined
# into `--times=-1,0.5` and `--time=-1e-3` before parsing.
_SIGNED_VALUE_OPTIONS = ("--times", "--time")
_SIGNED_VALUE = re.compile(r"-\.?\d")


def _resolve_out(path: str) -> str:
    """The output path under HYDROBOHM_OUT_DIR, refused before any work if it cannot be written.

    Raises the OSError that opening the path would raise when its directory
    is missing or not a directory, or when the path is a directory.  The
    file itself is neither created nor truncated here.
    """
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        path = os.path.join(base, path)
    parent = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return path
    raise OSError(code, os.strerror(code), path)


def _finish(args: argparse.Namespace, report: VerificationReport, table=None, csv_table=None) -> int:
    """Print the table and the summary, write --out, return the exit status.

    table is (column names, rows of raw values): it is printed and becomes
    the JSON payload's "table".  The CSV file holds csv_table, or the
    report's sorted cases when none is given.
    """
    if table is not None:
        columns, rows = table
        print(",".join(columns))
        for row in rows:
            print(",".join(map(format_cell, row)))
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        if args.format == "json":
            payload = {"report": report.to_dict()}
            if table is not None:
                payload["table"] = [dict(zip(columns, row)) for row in rows]
            write_json(args.out, payload)
        else:
            header, csv_rows = csv_table or (REPORT_HEADER, report.sorted_cases())
            write_csv(args.out, header, csv_rows)
    return 0 if report.all_passed else 1


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _parse_times(text: str) -> tuple[float, ...]:
    times = tuple(_finite_float(part) for part in text.split(",") if part.strip() != "")
    if not times:
        raise argparse.ArgumentTypeError("at least one time is required")
    try:
        _check_time_ids(times)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return times


def _parse_state(text: str):
    if text.strip() == "airy":
        return "airy"
    try:
        n, l, m = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be n,l,m integers or 'airy', got {text!r}") from None
    violation = quantum_number_violation(n, l, m)
    if violation is not None:
        raise argparse.ArgumentTypeError(violation)
    n_max = LIMITS["state"].high
    if n > n_max:
        raise argparse.ArgumentTypeError(f"n must be <= {n_max}, got {n}")
    return n, l, m


def _join_signed_values(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_VALUE_OPTIONS and _SIGNED_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def cmd_levels(args: argparse.Namespace) -> int:
    report, rows = run_levels(args.n_max, tolerance=args.tol)
    columns = ["n", "energy", "ratio", "expected"]
    csv_rows = [row + (case.rel_error, case.passed) for row, case in zip(rows, report.cases)]
    return _finish(args, report, (columns, rows), (columns + ["rel_error", "pass"], csv_rows))


def cmd_flatness(args: argparse.Namespace) -> int:
    fd_n_max = LIMITS["fd"].high
    if args.method == "fd" and args.n_max > fd_n_max:
        raise ValueError(f"--n-max must be <= {fd_n_max} with --method fd, got {args.n_max}")
    report = run_flatness(args.n_max, policy=args.policy, method=args.method, tolerance=args.tol)
    return _finish(args, report)


def cmd_bohr_radii(args: argparse.Namespace) -> int:
    report, rows = run_bohr_radii(args.n_max, tolerance=args.tol)
    table = (["n", "r_peak", "expected", "rel_error", "pass"], rows)
    return _finish(args, report, table, table)


def _airy_range_usage(exc: AiryRangeError, time_option: str) -> ValueError:
    """The usage error for a packet that leaves airy_ai's range, in option names."""
    return ValueError(
        f"--B {exc.strength:g} with {time_option} {exc.time:g} reads Ai at |u| up to "
        f"{exc.reach:.4g}, past the |u| <= {exc.limit:g} that airy_ai supports; "
        f"use a smaller --B or a time nearer 0"
    )


def cmd_airy(args: argparse.Namespace) -> int:
    try:
        report, rows = run_airy(args.strength, args.times, tolerance=args.tol)
    except AiryRangeError as exc:
        raise _airy_range_usage(exc, "--times") from exc
    return _finish(args, report, (["t", "x_peak", "expected"], rows))


def cmd_profile(args: argparse.Namespace) -> int:
    try:
        curve = profile_curve(args.state, args.quantity, strength=args.strength, time=args.time)
    except AiryRangeError as exc:
        raise _airy_range_usage(exc, "--time") from exc
    coord_name = "x" if args.state == "airy" else "r"
    if args.format == "svg":
        write_svg(
            args.out,
            curve.coords,
            curve.values,
            curve.title,
            curve.x_label,
            curve.y_label,
            mask=curve.masked,
        )
    elif args.format == "json":
        write_profile_json(args.out, coord_name, curve)
    else:
        write_profile_csv(args.out, coord_name, curve)
    print(f"wrote {args.out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
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
    p_levels.add_argument("--n-max", type=LIMITS["levels"], required=True)
    p_levels.set_defaults(run=cmd_levels)

    p_flat = sub.add_parser("flatness", parents=[output], help="V_Q = E_n check per eigenstate")
    p_flat.add_argument("--n-max", type=LIMITS["state"], required=True)
    group = p_flat.add_mutually_exclusive_group()
    group.add_argument("--all-lm", dest="policy", action="store_const", const="all-lm")
    group.add_argument("--circular", dest="policy", action="store_const", const="circular")
    p_flat.add_argument("--method", choices=("analytic", "fd"), default="analytic")
    p_flat.set_defaults(policy="all-lm", run=cmd_flatness)

    p_bohr = sub.add_parser("bohr-radii", parents=[output], help="P_{n,n-1} peak against n^2 a")
    p_bohr.add_argument("--n-max", type=LIMITS["bohr-radii"], required=True)
    p_bohr.set_defaults(run=cmd_bohr_radii)

    p_airy = sub.add_parser("airy", parents=[output], help="accelerating-packet checks")
    p_airy.add_argument("--B", dest="strength", type=LIMITS["B"], default=1.0)
    p_airy.add_argument("--times", type=_parse_times, default=(0.0, 0.3, 1.0))
    p_airy.set_defaults(run=cmd_airy)

    p_prof = sub.add_parser("profile", help="export a named curve")
    p_prof.add_argument("--state", type=_parse_state, required=True, help="n,l,m or 'airy'")
    p_prof.add_argument("--quantity", choices=_PROFILE_QUANTITIES, default="P")
    p_prof.add_argument("--B", dest="strength", type=LIMITS["B"], default=1.0)
    p_prof.add_argument("--time", type=_finite_float, default=0.0)
    p_prof.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(run=cmd_profile)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_join_signed_values(argv))
    started = _time.perf_counter()
    try:
        if args.out is not None:
            args.out = _resolve_out(args.out)
        status = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # The only files touched are the outputs: --out and HYDROBOHM_OUT_DIR.
        # _resolve_out refuses most unwritable paths before the run; this
        # catches what only the write itself meets.
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wall time: {_time.perf_counter() - started:.3f} s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
