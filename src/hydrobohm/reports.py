"""Verification report records and deterministic serialization.

Reports are plain data: every writer here is byte-deterministic for a given
report (stable case ordering, fixed decimal formatting, no timestamps), so
repeated runs of the same campaign produce identical artifacts.  Wall-clock
timing is deliberately kept out of serialized reports for the same reason.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "CaseRecord",
    "VerificationReport",
    "make_case",
    "format_number",
    "format_cell",
    "REPORT_HEADER",
    "write_csv",
    "write_json",
    "write_profile_csv",
    "write_profile_json",
    "write_svg",
]


def format_number(value) -> str:
    """Fixed 12-significant-digit decimal formatting for tables and CSV."""
    return format(float(value), ".12g")


def format_cell(value) -> str:
    """One table cell, the same on stdout and in CSV."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format_number(value)


class CaseRecord(NamedTuple):
    """One verified case: a computed value against its expected value.

    Its fields, in order, are the keys of its JSON object and the cells of
    its CSV row.
    """

    case_id: str
    computed: float
    expected: float
    abs_error: float
    rel_error: float
    passed: bool


def make_case(case_id: str, computed: float, expected: float, tolerance: float, metric: str = "rel") -> CaseRecord:
    """Build a record; the pass flag compares the chosen error metric.

    With metric="rel" the relative error |computed - expected|/|expected|
    decides; with metric="abs" the absolute error does (the natural choice
    for residuals whose expected value is zero).  When expected is zero the
    relative error column repeats the absolute error so it stays finite.
    """
    if metric not in ("rel", "abs"):
        raise ValueError(f"unknown metric {metric!r}")
    abs_error = abs(float(computed) - float(expected))
    rel_error = abs_error / abs(float(expected)) if expected else abs_error
    passed = (rel_error if metric == "rel" else abs_error) <= tolerance
    return CaseRecord(case_id, float(computed), float(expected), abs_error, rel_error, bool(passed))


# An integer run is a digit run that does not follow a decimal point or a
# digit; fraction digits (t=0.25 < t=0.3) keep their string order.
_INTEGER_RUN = re.compile(r"(?<![.\d])(\d+)")


def _case_order(case: CaseRecord) -> list:
    parts = _INTEGER_RUN.split(case.case_id)
    parts[1::2] = map(int, parts[1::2])
    return parts


@dataclass
class VerificationReport:
    """A campaign's cases plus its configured tolerance."""

    command: str
    tolerance: float
    cases: list[CaseRecord] = field(default_factory=list)

    def add(self, case: CaseRecord) -> None:
        self.cases.append(case)

    @property
    def case_count(self) -> int:
        return len(self.cases)

    @property
    def pass_count(self) -> int:
        return sum(1 for case in self.cases if case.passed)

    @property
    def all_passed(self) -> bool:
        return self.pass_count == self.case_count

    @property
    def max_abs_error(self) -> float:
        return max((case.abs_error for case in self.cases), default=0.0)

    @property
    def max_rel_error(self) -> float:
        return max((case.rel_error for case in self.cases), default=0.0)

    def sorted_cases(self) -> list[CaseRecord]:
        """Cases by identifier, integer runs compared as numbers (n=99 < n=100)."""
        return sorted(self.cases, key=_case_order)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "tolerance": self.tolerance,
            "cases": [case._asdict() for case in self.sorted_cases()],
            "summary": {
                "cases": self.case_count,
                "passes": self.pass_count,
                "max_abs_error": self.max_abs_error,
                "max_rel_error": self.max_rel_error,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        report = cls(command=data["command"], tolerance=data["tolerance"])
        for entry in data["cases"]:
            report.add(CaseRecord(*(entry[name] for name in CaseRecord._fields)))
        return report

    def summary_lines(self) -> list[str]:
        lines = [
            f"cases: {self.case_count}  passes: {self.pass_count}  "
            f"max_abs_error: {format_number(self.max_abs_error)}  "
            f"max_rel_error: {format_number(self.max_rel_error)}"
        ]
        for case in sorted((case for case in self.cases if not case.passed), key=_case_order):
            lines.append(
                f"FAIL {case.case_id}: computed {format_number(case.computed)} "
                f"expected {format_number(case.expected)} "
                f"rel_error {format_number(case.rel_error)}"
            )
        return lines


# The CSV header of a report's cases, which are its rows; "passed" is written "pass".
REPORT_HEADER = [*CaseRecord._fields[:-1], "pass"]


def _write_text(path, *parts: str) -> None:
    """The parts, one write each, so no joined copy of them is ever made."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for part in parts:
            stream.write(part)


def write_csv(path, header: list[str], rows: list[Sequence]) -> None:
    """UTF-8, comma-delimited, LF-terminated CSV; each cell through format_cell."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    _write_text(path, "\n".join(lines), "\n")


# Encoder chunks joined into one write: large enough that the join and the
# write cost no more than json.dumps, small enough to hold little at once.
_JSON_CHUNKS_PER_WRITE = 4096


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF endings.

    The bytes are json.dumps(payload, indent=2, sort_keys=True) + "\n", but
    the encoder's chunks are written in blocks as they come, so neither the
    list of all chunks nor the whole text is ever held in memory.
    """
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for first in chunks:
            stream.write(first + "".join(itertools.islice(chunks, _JSON_CHUNKS_PER_WRITE - 1)))
        stream.write("\n")


def _fill_rows(curve, templates: tuple[str, str, str], separator: str, value_first: bool = False) -> str:
    """Every row of a profile curve, rendered by one printf-style %.

    Row i takes templates[kind]: kind 0 shows the value, 1 leaves it blank
    because it is not finite, 2 because the sample is masked.  The picked
    templates (one take from an object array) are joined by separator and
    filled from one flat tuple of Python floats: the coordinate and, in
    kind 0 rows, the value (value first with value_first).
    """
    kinds = np.where(curve.masked, 2, ~np.isfinite(curve.values))
    columns = np.column_stack((curve.coords, curve.values))
    keep = np.column_stack((np.ones(len(kinds), dtype=bool), kinds == 0))
    if value_first:
        columns, keep = columns[:, ::-1], keep[:, ::-1]
    rows = np.array(templates, dtype=object)[kinds].tolist()
    return separator.join(rows) % tuple(columns[keep].tolist())


def write_profile_csv(path, coord_name: str, curve) -> None:
    """A profile curve as CSV rows coord_name,value,masked.

    The value cell is blank where the sample is masked or not finite.  One
    template per row kind is filled by one %; its %.12g gives the text of
    format_number, as both format a Python float with the same 'g' rules.
    """
    templates = ("%.12g,%.12g,false\n", "%.12g,,false\n", "%.12g,,true\n")
    _write_text(path, f"{coord_name},value,masked\n", _fill_rows(curve, templates, ""))


def write_profile_json(path, coord_name: str, curve) -> None:
    """A profile curve as write_json would write its row-dict payload.

    The payload is {"title", "x_label", "y_label", "rows"}, one row
    {coord_name: c, "value": v, "masked": flag} per sample, and the bytes
    equal json.dumps(payload, indent=2, sort_keys=True) + "\n".  One
    template per row kind, its keys in sorted order, is filled by one %
    instead of the pure-Python indenting encoder; %r of a Python float is
    float.__repr__, which json.dumps writes for finite floats.  The value is
    null where the sample is masked or not finite (NaN and Infinity are not
    JSON); the coordinates are finite grid points.
    """
    names = sorted((coord_name, "value", "masked"))
    templates = tuple(
        "    {\n" + ",\n".join(f"      {json.dumps(name)}: {cells[name]}" for name in names) + "\n    }"
        for cells in (
            {coord_name: "%r", "value": "%r", "masked": "false"},
            {coord_name: "%r", "value": "null", "masked": "false"},
            {coord_name: "%r", "value": "null", "masked": "true"},
        )
    )
    rows = _fill_rows(curve, templates, ",\n", value_first="value" < coord_name)
    tail = (
        f'  "title": {json.dumps(curve.title)},\n'
        f'  "x_label": {json.dumps(curve.x_label)},\n'
        f'  "y_label": {json.dumps(curve.y_label)}\n'
        "}\n"
    )
    if rows:
        _write_text(path, '{\n  "rows": [\n', rows, "\n  ],\n" + tail)
    else:
        _write_text(path, '{\n  "rows": [],\n' + tail)


# The escapes of xml.sax.saxutils.escape for SVG text, without that
# module's import of urllib.request (tens of ms and several MB at start-up).
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_SVG_WIDTH = 640
_SVG_HEIGHT = 420
_SVG_MARGIN_LEFT = 72
_SVG_MARGIN_RIGHT = 24
_SVG_MARGIN_TOP = 36
_SVG_MARGIN_BOTTOM = 52
_SVG_TICKS = 5


def _axis_range(values: np.ndarray) -> tuple[float, float]:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        pad = max(abs(lo) * 1e-6, 1e-12)
        return lo - pad, hi + pad
    return lo, hi


def _hundredths(values: np.ndarray) -> np.ndarray:
    """Each value times 100, rounded to an int64 as %.2f rounds it.

    Every value must lie in [0, 10^4).  The product is taken on its exact
    binary value v = m * 2^(e - 53), in int64 (m * 100 < 2^60), and rounded
    to nearest, ties to even.
    """
    fraction, exponent = np.frexp(values)
    scaled = np.ldexp(fraction, 53).astype(np.int64) * 100
    # scaled < 2^60, so from a shift of 61 on every value rounds to 0; the
    # cap keeps the int64 shifts defined.
    shift = np.minimum(53 - exponent.astype(np.int64), 62)
    hundredths = scaled >> shift
    rest = scaled - (hundredths << shift)
    half = np.int64(1) << (shift - 1)
    hundredths += (rest > half) | ((rest == half) & (hundredths & 1 == 1))
    return hundredths


def _pixel_text(pixels: np.ndarray) -> tuple[str, np.ndarray]:
    """'%.2f,%.2f ' % (x, y) for every row of pixels, as one string.

    Also returns where each row's text starts, then where the last one ends.
    Every value must lie in [0, 10^4) (see _hundredths).  The characters go
    into one uint8 cell array, one row per number, whose leading zeros are
    then dropped, and the kept cells are decoded once.
    """
    hundredths = _hundredths(pixels.ravel())
    # One row per number: width integer digits, '.', two fraction digits,
    # then ',' after an x and ' ' after a y.
    width = len(str(int(hundredths.max(initial=0)) // 100))
    cells = np.empty((len(hundredths), width + 4), dtype=np.uint8)
    cells[:, width] = ord(".")
    cells[0::2, -1] = ord(",")
    cells[1::2, -1] = ord(" ")
    # Digits from the last one leftwards, skipping the '.' column.
    remaining = hundredths.astype(np.uint32)
    for column in (width + 2, width + 1, *range(width - 1, -1, -1)):
        quotient = remaining // 10
        remaining -= quotient * 10
        remaining += ord("0")
        cells[:, column] = remaining
        remaining = quotient
    # Integer digits left of a number's leading one are dropped.
    keep = np.ones(cells.shape, dtype=bool)
    lengths = np.full(len(hundredths), width + 4)
    for column in range(width - 1):
        keep[:, column] = hundredths >= 10 ** (width + 1 - column)
        lengths -= ~keep[:, column]
    starts = np.concatenate(([0], np.cumsum(lengths)[1::2]))
    return cells[keep].tobytes().decode("ascii"), starts


def write_svg(path, x: np.ndarray, y: np.ndarray, title: str, x_label: str, y_label: str, mask=None) -> None:
    """Single-panel line plot with axes and ticks; no external assets.

    Masked or non-finite samples split the curve into separate segments.
    Pixel coordinates are written with two decimals, rounded half to even
    on their exact binary value, as %.2f rounds them.  x and y of different
    lengths, a non-finite x, or an axis whose span is not finite raise
    ValueError before the file is opened.  The title and axis labels are
    XML-escaped (&, <, >).
    The output is deterministic: fixed canvas, fixed formatting, content
    derived only from the data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"cannot plot: x and y must be 1-D of one length, got shapes {x.shape} and {y.shape}")
    if not np.isfinite(x).all():
        raise ValueError("cannot plot: an x coordinate is not finite")
    drop = ~np.isfinite(y)
    if mask is not None:
        drop = drop | np.asarray(mask, dtype=bool)
    keep = ~drop
    if not keep.any():
        raise ValueError("nothing to plot: every sample is masked")
    x_lo, x_hi = _axis_range(x)
    y_lo, y_hi = _axis_range(y[keep])
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("cannot plot: an axis span is not finite")
    plot_w = _SVG_WIDTH - _SVG_MARGIN_LEFT - _SVG_MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _SVG_MARGIN_TOP - _SVG_MARGIN_BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title.translate(_XML_TEXT)}</text>',
    ]
    axis_y = _SVG_HEIGHT - _SVG_MARGIN_BOTTOM
    parts.append(
        f'<line x1="{_SVG_MARGIN_LEFT}" y1="{axis_y}" x2="{_SVG_WIDTH - _SVG_MARGIN_RIGHT}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_SVG_MARGIN_LEFT}" y1="{_SVG_MARGIN_TOP}" x2="{_SVG_MARGIN_LEFT}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for i in range(_SVG_TICKS):
        frac = i / (_SVG_TICKS - 1)
        tx = _SVG_MARGIN_LEFT + frac * plot_w
        tv = x_lo + frac * (x_hi - x_lo)
        parts.append(f'<line x1="{tx:.1f}" y1="{axis_y}" x2="{tx:.1f}" y2="{axis_y + 5}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{tx:.1f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{tv:.5g}</text>'
        )
        ty = axis_y - frac * plot_h
        tv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{_SVG_MARGIN_LEFT - 5}" y1="{ty:.1f}" x2="{_SVG_MARGIN_LEFT}" y2="{ty:.1f}" stroke="black" stroke-width="1"/>')
        parts.append(
            f'<text x="{_SVG_MARGIN_LEFT - 8}" y="{ty + 4:.1f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{tv:.5g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_MARGIN_LEFT + plot_w / 2:.1f}" y="{_SVG_HEIGHT - 14}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label.translate(_XML_TEXT)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_MARGIN_TOP + plot_h / 2:.1f})">{y_label.translate(_XML_TEXT)}</text>'
    )
    # Each run of kept samples is one polyline; a lone sample draws nothing,
    # so only kept samples with a kept neighbour are drawn.
    beside = np.concatenate(([False], keep, [False]))
    drawn = keep & (beside[:-2] | beside[2:])
    # Same operation order as the scalar margin + (v - lo) / (hi - lo) * size
    # (hi - v for y), so every pixel coordinate is bit-identical to a
    # per-point evaluation.
    px = _SVG_MARGIN_LEFT + (x[drawn] - x_lo) / (x_hi - x_lo) * plot_w
    py = _SVG_MARGIN_TOP + (y_hi - np.minimum(np.maximum(y[drawn], y_lo), y_hi)) / (y_hi - y_lo) * plot_h
    text, starts = _pixel_text(np.column_stack((px, py)))
    edges = np.diff(drawn.astype(np.int8), prepend=0, append=0)
    run_ends = np.cumsum(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1))
    bounds = starts[np.concatenate(([0], run_ends))].tolist()
    for begin, end in zip(bounds[:-1], bounds[1:]):
        # The run's text less the separator after its last pair.
        parts.append(f'<polyline points="{text[begin:end - 1]}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts), "\n")
