"""Verification report records and deterministic serialization.

Reports are plain data: every writer here is byte-deterministic for a given
report (stable case ordering, fixed decimal formatting, no timestamps), so
repeated runs of the same campaign produce identical artifacts.  Wall-clock
timing is deliberately kept out of serialized reports for the same reason.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CaseRecord",
    "VerificationReport",
    "make_case",
    "format_number",
    "REPORT_HEADER",
    "report_rows",
    "write_csv",
    "write_json",
    "write_svg",
]


def format_number(value) -> str:
    """Fixed 12-significant-digit decimal formatting for tables and CSV."""
    return format(float(value), ".12g")


@dataclass(frozen=True)
class CaseRecord:
    """One verified case: a computed value against its expected value."""

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
    return CaseRecord(
        case_id=case_id,
        computed=float(computed),
        expected=float(expected),
        abs_error=abs_error,
        rel_error=rel_error,
        passed=bool(passed),
    )


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
            "cases": [
                {
                    "case_id": case.case_id,
                    "computed": case.computed,
                    "expected": case.expected,
                    "abs_error": case.abs_error,
                    "rel_error": case.rel_error,
                    "passed": case.passed,
                }
                for case in self.sorted_cases()
            ],
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
            report.add(
                CaseRecord(
                    case_id=entry["case_id"],
                    computed=entry["computed"],
                    expected=entry["expected"],
                    abs_error=entry["abs_error"],
                    rel_error=entry["rel_error"],
                    passed=entry["passed"],
                )
            )
        return report

    def summary_lines(self) -> list[str]:
        lines = [
            f"cases: {self.case_count}  passes: {self.pass_count}  "
            f"max_abs_error: {format_number(self.max_abs_error)}  "
            f"max_rel_error: {format_number(self.max_rel_error)}"
        ]
        for case in self.sorted_cases():
            if not case.passed:
                lines.append(
                    f"FAIL {case.case_id}: computed {format_number(case.computed)} "
                    f"expected {format_number(case.expected)} "
                    f"rel_error {format_number(case.rel_error)}"
                )
        return lines


REPORT_HEADER = ["case_id", "computed", "expected", "abs_error", "rel_error", "pass"]


def report_rows(report: VerificationReport) -> list[list[str]]:
    """Generic CSV rows for a report: one line per case, sorted by id."""
    rows = []
    for case in report.sorted_cases():
        rows.append(
            [
                case.case_id,
                format_number(case.computed),
                format_number(case.expected),
                format_number(case.abs_error),
                format_number(case.rel_error),
                "true" if case.passed else "false",
            ]
        )
    return rows


def write_csv(path, header: list[str], rows: list[list[str]]) -> None:
    """UTF-8, comma-delimited, LF-terminated CSV."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("\n".join(lines) + "\n")


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, two-space indent, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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


def write_svg(path, x: np.ndarray, y: np.ndarray, title: str, x_label: str, y_label: str, mask=None) -> None:
    """Single-panel line plot with axes and ticks; no external assets.

    Masked or non-finite samples split the curve into separate segments.
    The output is deterministic: fixed canvas, fixed formatting, content
    derived only from the data.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    drop = ~np.isfinite(y)
    if mask is not None:
        drop = drop | np.asarray(mask, dtype=bool)
    keep = ~drop
    if not keep.any():
        raise ValueError("nothing to plot: every sample is masked")
    x_lo, x_hi = _axis_range(x)
    y_lo, y_hi = _axis_range(y[keep])
    plot_w = _SVG_WIDTH - _SVG_MARGIN_LEFT - _SVG_MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _SVG_MARGIN_TOP - _SVG_MARGIN_BOTTOM

    def px(value: float) -> float:
        return _SVG_MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        clipped = min(max(value, y_lo), y_hi)
        return _SVG_MARGIN_TOP + (y_hi - clipped) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
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
        f'font-family="monospace" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_SVG_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {_SVG_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )
    segment: list[str] = []
    for xi, yi, ok in zip(x, y, keep):
        if ok:
            segment.append(f"{px(float(xi)):.2f},{py(float(yi)):.2f}")
        elif segment:
            if len(segment) > 1:
                parts.append(f'<polyline points="{" ".join(segment)}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>')
            segment = []
    if len(segment) > 1:
        parts.append(f'<polyline points="{" ".join(segment)}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("\n".join(parts) + "\n")
