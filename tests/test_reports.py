"""Case records, verification reports and the CSV/JSON/SVG writers."""

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hydrobohm import cli, reports
from hydrobohm.campaigns import ProfileCurve
from hydrobohm.reports import (
    CaseRecord,
    VerificationReport,
    format_number,
    make_case,
    write_csv,
    write_json,
    write_profile_csv,
    write_profile_json,
    write_svg,
)

import oracles


class TestMakeCase:
    def test_relative_metric(self):
        case = make_case("n=02", 4.000004, 4.0, 1e-5, metric="rel")
        assert case.abs_error == pytest.approx(4e-6)
        assert case.rel_error == pytest.approx(1e-6)
        assert case.passed

    def test_relative_metric_failure(self):
        case = make_case("n=02", 4.2, 4.0, 1e-3, metric="rel")
        assert not case.passed

    def test_absolute_metric_with_zero_expectation(self):
        case = make_case("flat", 3e-9, 0.0, 1e-8, metric="abs")
        assert case.passed
        assert case.rel_error == case.abs_error

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            make_case("x", 1.0, 1.0, 1e-6, metric="ulp")


class TestVerificationReport:
    def build(self):
        report = VerificationReport(command="demo", tolerance=1e-6)
        report.add(make_case("b", 1.0 + 2e-7, 1.0, 1e-6))
        report.add(make_case("a", 2.0, 2.0, 1e-6))
        return report

    def test_counters(self):
        report = self.build()
        assert report.case_count == 2
        assert report.pass_count == 2
        assert report.all_passed
        assert report.max_rel_error == pytest.approx(2e-7)

    def test_sorted_cases_are_by_identifier(self):
        assert [c.case_id for c in self.build().sorted_cases()] == ["a", "b"]

    def test_round_trip_is_exact(self):
        report = self.build()
        clone = VerificationReport.from_dict(report.to_dict())
        assert clone.command == report.command
        assert clone.tolerance == report.tolerance
        for ours, theirs in zip(report.sorted_cases(), clone.sorted_cases()):
            assert ours == theirs

    def test_dict_summary_fields(self):
        payload = self.build().to_dict()
        assert payload["summary"]["cases"] == 2
        assert payload["summary"]["passes"] == 2
        assert set(payload["summary"]) == {"cases", "passes", "max_abs_error", "max_rel_error"}

    def test_summary_lines_mention_failures_only_when_present(self):
        report = self.build()
        assert not any("FAIL" in line for line in report.summary_lines())
        report.add(make_case("c", 5.0, 4.0, 1e-6))
        lines = report.summary_lines()
        assert any("FAIL" in line and "c" in line for line in lines)

    def test_summary_lines_sort_only_the_failing_cases(self, monkeypatch):
        # FAIL lines come in case-id order with integer runs compared as
        # numbers, and the sort key runs on the failing cases alone.
        report = VerificationReport(command="demo", tolerance=1e-6)
        for n in (100, 7, 99, 8, 10, 9):
            failing = n in (100, 9, 10)
            report.add(make_case(f"n={n:02d}", 5.0 if failing else 4.0, 4.0, 1e-6))
        calls = []
        order = reports._case_order
        monkeypatch.setattr(reports, "_case_order", lambda case: calls.append(case.case_id) or order(case))
        assert [line.split(":")[0] for line in report.summary_lines()[1:]] == ["FAIL n=09", "FAIL n=10", "FAIL n=100"]
        assert sorted(calls) == ["n=09", "n=10", "n=100"]

    def test_dict_cases_keep_the_field_order_and_values(self):
        report = self.build()
        report.add(CaseRecord("c", *report.cases[0][1:]))
        payload = report.to_dict()
        assert payload["cases"] == [case._asdict() for case in report.sorted_cases()]
        assert [list(entry) for entry in payload["cases"]] == [list(CaseRecord._fields)] * 3


class TestFormatNumber:
    def test_twelve_significant_digits(self):
        assert format_number(-0.5) == "-0.5"
        assert format_number(1.0 / 3.0) == "0.333333333333"
        assert format_number(1234567.0) == "1234567"
        assert format_number(1e-11) == "1e-11"


class TestWriters:
    def test_csv_layout(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["n", "value"], [["1", "2.5"], ["2", "3.5"]])
        text = path.read_text(encoding="utf-8")
        assert text == "n,value\n1,2.5\n2,3.5\n"

    def test_json_is_sorted_and_round_trips(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, {"beta": 1.0, "alpha": {"z": 2, "a": [1.5, -0.25]}})
        text = path.read_text(encoding="utf-8")
        assert text.index('"alpha"') < text.index('"beta"')
        assert json.loads(text)["alpha"]["a"] == [1.5, -0.25]

    def test_json_preserves_full_float_precision(self, tmp_path):
        path = tmp_path / "payload.json"
        value = 0.1234567890123456789
        write_json(path, {"v": value})
        assert json.loads(path.read_text(encoding="utf-8"))["v"] == value

    @pytest.mark.parametrize(
        "argv",
        [
            ["levels", "--n-max", "4"],
            ["flatness", "--n-max", "3"],
            ["bohr-radii", "--n-max", "5"],
            ["airy", "--B", "1", "--times", "0,0.3"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_streamed_json_equals_dumps_for_cli_payloads(self, argv, capsys, monkeypatch, tmp_path):
        payloads = []
        monkeypatch.setattr(cli, "write_json", lambda path, payload: payloads.append(payload))
        cli.main([*argv, "--format", "json", "--out", str(tmp_path / "unused.json")])
        capsys.readouterr()
        (payload,) = payloads
        assert ("table" in payload) == (argv[0] != "flatness")
        bare = {key: value for key, value in payload.items() if key != "table"}
        for index, variant in enumerate((payload, bare)):
            path = tmp_path / f"payload{index}.json"
            write_json(path, variant)
            assert path.read_text(encoding="utf-8") == json.dumps(variant, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"report": VerificationReport(command="empty", tolerance=1e-6).to_dict()},
            {},
            {"text": 'quote " slash \\ tab \t line \n nul \x00 é ∞ \U0001d11e', "ü": [None, True, -0.0]},
            {"edges": [float("nan"), float("inf"), -float("inf"), 5e-324, 1.7976931348623157e308]},
            # More chunks than one write takes, so the file is written in several blocks.
            {"rows": [{"n": n, "value": n / 7} for n in range(3000)]},
        ],
        ids=["empty-report", "empty", "escapes", "non-finite", "many-blocks"],
    )
    def test_streamed_json_equals_dumps(self, payload, tmp_path):
        path = tmp_path / "payload.json"
        write_json(path, payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def test_svg_splits_polyline_on_mask(self, tmp_path):
        path = tmp_path / "curve.svg"
        x = np.linspace(0.0, 1.0, 11)
        y = np.sin(x)
        mask = np.zeros(11, dtype=bool)
        mask[5] = True
        write_svg(path, x, y, title="demo", x_label="x", y_label="y", mask=mask)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "NaN" not in text and "nan" not in text
        assert "demo" in text

    def test_svg_handles_constant_curve(self, tmp_path):
        path = tmp_path / "flat.svg"
        x = np.linspace(0.0, 1.0, 5)
        write_svg(path, x, np.full(5, -0.5), title="flat", x_label="x", y_label="y")
        assert "<polyline" in path.read_text(encoding="utf-8")

    def test_svg_rejects_fully_masked_curve(self, tmp_path):
        path = tmp_path / "none.svg"
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            write_svg(path, x, np.full(5, np.nan), title="t", x_label="x", y_label="y")

    def test_svg_rejects_a_non_finite_coordinate(self, tmp_path):
        path = tmp_path / "nan.svg"
        with pytest.raises(ValueError, match="x coordinate is not finite"):
            write_svg(path, [0.0, math.nan, 1.0, 2.0], [1.0, 2.0, 3.0, 4.0], title="t", x_label="x", y_label="y")
        assert not path.exists()

    @pytest.mark.parametrize("x, y", [([0.0, 1.0, 2.0], [1.0, 2.0]), ([0.0, 1.0], [1.0, 2.0, 3.0])], ids=["short y", "short x"])
    def test_svg_rejects_x_and_y_of_different_lengths(self, x, y, tmp_path):
        path = tmp_path / "ragged.svg"
        with pytest.raises(ValueError, match="one length"):
            write_svg(path, x, y, title="t", x_label="x", y_label="y")
        assert not path.exists()

    @pytest.mark.parametrize(
        "x, y",
        [
            ([-1e308, 1e308], [0.0, 1.0]),
            ([0.0, 1.0], [-1e308, 1e308]),
            (np.linspace(0.0, 1.0, 3), np.full(3, -1.7976931348623157e308)),
        ],
        ids=["x span", "y span", "padded constant y"],
    )
    def test_svg_rejects_an_axis_span_that_overflows(self, x, y, tmp_path):
        path = tmp_path / "wide.svg"
        with pytest.raises(ValueError, match="axis span is not finite"):
            write_svg(path, x, y, title="t", x_label="x", y_label="y")
        assert not path.exists()

    def test_svg_escapes_title_and_labels(self, tmp_path):
        path = tmp_path / "escaped.svg"
        x = np.linspace(0.0, 1.0, 5)
        write_svg(path, x, x * x, title="P & V <r>", x_label="r > 0 & r < 1", y_label="<P>")
        texts = [element.text for element in ET.parse(path).getroot() if element.tag.endswith("text")]
        assert {"P & V <r>", "r > 0 & r < 1", "<P>"} <= set(texts)

    def test_deterministic_output(self, tmp_path):
        first, second = tmp_path / "a.svg", tmp_path / "b.svg"
        x = np.linspace(0.0, 2.0, 64)
        y = np.cos(3.0 * x) * np.exp(-x)
        write_svg(first, x, y, title="t", x_label="x", y_label="y")
        write_svg(second, x, y, title="t", x_label="x", y_label="y")
        assert first.read_bytes() == second.read_bytes()


def _curve(coords, values, masked, title="hydrogen (n=3, l=1, m=1): quantum potential"):
    return ProfileCurve(
        np.asarray(coords, dtype=float),
        np.asarray(values, dtype=float),
        np.asarray(masked, dtype=bool),
        title,
        "r [bohr]",
        "V_q [hartree]",
    )


def _row_dict_json(coord_name, curve):
    """The profile JSON as the row-dict payload through json.dumps."""
    payload = {
        "title": curve.title,
        "x_label": curve.x_label,
        "y_label": curve.y_label,
        "rows": [
            {coord_name: float(c), "value": None if bad or not math.isfinite(v) else float(v), "masked": bool(bad)}
            for c, v, bad in zip(curve.coords, curve.values, curve.masked)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


_EDGE_VALUES = [-0.0, 5e-324, 0.1, 1e-5, 1e16, -2.5e-300, 123456789.123, -1.0 / 3.0]


def _oracle_curves():
    n = len(_EDGE_VALUES) + 4
    masked_ends = np.zeros(n, dtype=bool)
    masked_ends[:2] = masked_ends[-2:] = True
    rng = np.random.default_rng(7)
    wide = rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    spread = np.random.default_rng(3)
    non_finite = spread.standard_normal(200) * 10.0 ** spread.integers(-20, 20, 200)
    non_finite[[0, 50, 100, 199]] = [math.nan, math.inf, math.nan, -math.inf]
    non_finite_masked = spread.random(200) < 0.2
    non_finite_masked[:3] = non_finite_masked[-3:] = True
    non_finite_masked[[50, 100, 199]] = False
    return {
        "edge values, masked at both ends": _curve(np.linspace(0.0, 1.0, n), [7.0, 8.0] + _EDGE_VALUES + [9.0, 10.0], masked_ends),
        "single row": _curve([0.25], [-0.0], [False]),
        "single masked row": _curve([0.25], [1.5], [True]),
        "no rows": _curve([], [], []),
        "wide magnitudes, random mask": _curve(np.sort(rng.random(500)) * 40.0, wide, rng.random(500) < 0.3),
        "unmasked NaN and infinities": _curve(np.linspace(0.0, 30.0, 200), non_finite, non_finite_masked),
        "escaped title": _curve([0.0, 1.0], [0.1, 0.2], [False, True], title='packet "t=0" \\ \u03c8 \u2207\u00b2'),
    }


class TestProfileJson:
    @pytest.mark.parametrize("coord_name", ["r", "x"])
    @pytest.mark.parametrize("name", list(_oracle_curves()))
    def test_bytes_equal_row_dict_json(self, name, coord_name, tmp_path):
        curve = _oracle_curves()[name]
        path = tmp_path / "profile.json"
        write_profile_json(path, coord_name, curve)
        assert path.read_bytes() == _row_dict_json(coord_name, curve).encode("utf-8")

    def test_non_finite_values_are_null(self, tmp_path):
        values = [1.0, math.nan, math.inf, -math.inf, 2.0]
        masked = [False, False, False, False, True]
        path = tmp_path / "profile.json"
        write_profile_json(path, "x", _curve(np.arange(5.0), values, masked))
        rows = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)["rows"]
        assert [row["value"] for row in rows] == [1.0, None, None, None, None]
        assert [row["masked"] for row in rows] == masked


class TestProfileCsv:
    @pytest.mark.parametrize("coord_name", ["r", "x"])
    @pytest.mark.parametrize("name", list(_oracle_curves()))
    def test_bytes_equal_per_row_reference(self, name, coord_name, tmp_path):
        curve = _oracle_curves()[name]
        path, reference = tmp_path / "profile.csv", tmp_path / "reference.csv"
        write_profile_csv(path, coord_name, curve)
        write_csv(reference, [coord_name, "value", "masked"], oracles.profile_rows(curve))
        assert path.read_bytes() == reference.read_bytes()


def _written_polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))


def _near_pixel_boundaries(lo, hi, size, count):
    """lo, hi, and values whose pixel offset (v - lo) / (hi - lo) * size lies
    within 4 ulps of one of count rounding boundaries (k + 0.5) / 100 of "%.2f".

    A pixel formula that rounds differently from the scalar one shows here.
    """
    centres = lo + (np.arange(count) + 0.5) / 100.0 / size * (hi - lo)
    near = centres[:, None] + np.spacing(centres)[:, None] * np.arange(-4, 5)
    return np.concatenate(([lo], np.sort(near.ravel()), [hi]))


def _binary_ties():
    """x and y whose pixels are exact binary ties of "%.2f" (fraction .125,
    .375, .625 or .875) at every sample but the two that set each axis.

    x = 17 j / 8 on [0, 544] maps to px = 72 + x and y = 332 - 83 j / 8 on
    [0, 332] to py = 36 + 83 j / 8, both exactly: (v - lo) / (hi - lo) is
    j / 256 or j / 32, a dyadic fraction, so neither step rounds.
    """
    odd = np.arange(1, 256, 2)
    x = 17.0 * np.concatenate(([0], odd, [256])) / 8.0
    y = 332.0 - 83.0 * np.concatenate(([0], odd % 32, [32])) / 8.0
    return x, y


def _svg_curves():
    x = np.linspace(0.0, 3.0, 41)
    y = np.cos(2.0 * x) * np.exp(-x)
    isolated = np.ones(41, dtype=bool)
    isolated[[3, 7, 8, 20, 30, 31, 32]] = False
    both_ends = np.zeros(41, dtype=bool)
    both_ends[:5] = both_ends[-6:] = True
    with_nan = y.copy()
    with_nan[[0, 10, 11, 25, 40]] = np.nan
    return {
        "isolated kept samples": (x, y, isolated),
        "masked runs at both ends": (x, y, both_ends),
        "NaN values": (x, with_nan, None),
        "NaN values and a mask": (x, with_nan, both_ends),
        "constant y": (x, np.full(41, -0.5), None),
        "constant y with a gap": (x, np.full(41, 2.0), isolated),
        "no mask": (x, y, None),
        "rounding boundaries": (
            _near_pixel_boundaries(0.0, 3.0, 544, 600),
            _near_pixel_boundaries(2.0, -1.0, 332, 600),
            None,
        ),
        "exact binary ties": (*_binary_ties(), None),
    }


def test_binary_tie_curve_lands_on_ties():
    x, y = _binary_ties()
    # The writer's pixel formulas, with the axis ranges [0, 544] and [0, 332].
    px = 72 + x / 544.0 * 544
    py = 36 + (332.0 - y) / 332.0 * 332
    for pixels in (px, py):
        assert np.array_equal(pixels[1:-1] * 8 % 2, np.ones(len(pixels) - 2))
    assert {value % 1 for value in px[1:-1].tolist() + py[1:-1].tolist()} == {0.125, 0.375, 0.625, 0.875}
    assert (x.min(), x.max(), y.min(), y.max()) == (0.0, 544.0, 0.0, 332.0)


class TestSvgPolylines:
    @pytest.mark.parametrize("name", list(_svg_curves()))
    def test_matches_scalar_reference(self, name, tmp_path):
        x, y, mask = _svg_curves()[name]
        path = tmp_path / "curve.svg"
        write_svg(path, x, y, title="t", x_label="x", y_label="y", mask=mask)
        assert _written_polylines(path) == oracles.svg_polylines(x, y, mask)


def _pixel_text_reference(pixels):
    tokens = ["%.2f,%.2f " % tuple(pair) for pair in pixels.tolist()]
    return "".join(tokens), np.cumsum([0] + [len(token) for token in tokens])


def _two_decimal_edges():
    """Values in [0, 10^4) where "%.2f" is easiest to get wrong."""
    rng = np.random.default_rng(29)
    uniform = rng.random(50_000) * 1e4
    centres = (rng.choice(1_000_000, 20_000, replace=False) + 0.5) / 100.0
    near = (centres[:, None] + np.spacing(centres)[:, None] * np.arange(-4, 5)).ravel()
    ties = np.arange(80_000) / 8.0
    small = [0.0, 5e-324, 1e-300, 0.004999999999999999, 0.005, 0.015, 0.125, 0.375, 9.995, 99.995]
    top = [9999.994999999999, 9999.995, np.nextafter(1e4, 0.0)]
    values = np.concatenate((uniform, near, ties, small, top))
    return values[(values >= 0.0) & (values < 1e4)]


class TestPixelText:
    def test_matches_percent_format_on_edges(self):
        values = _two_decimal_edges()
        pixels = np.column_stack((values, values[::-1]))
        text, starts = reports._pixel_text(pixels)
        expected_text, expected_starts = _pixel_text_reference(pixels)
        assert text == expected_text
        assert np.array_equal(starts, expected_starts)

    def test_ties_round_half_to_even(self):
        text, _ = reports._pixel_text(np.array([[0.125, 0.375], [2.625, 616.875]]))
        assert text == "0.12,0.38 2.62,616.88 "

    @pytest.mark.parametrize("values", [[], [[36.0, 72.0]], [[9999.995, 0.0]]], ids=["none", "one", "five digits"])
    def test_small_inputs(self, values):
        pixels = np.array(values, dtype=float).reshape(-1, 2)
        text, starts = reports._pixel_text(pixels)
        expected_text, expected_starts = _pixel_text_reference(pixels)
        assert (text, starts.tolist()) == (expected_text, expected_starts.tolist())
