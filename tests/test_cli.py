"""Command-line interface: exit codes, file outputs, determinism."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import hydrobohm.campaigns as campaigns
from hydrobohm import cli
from hydrobohm.cli import LIMITS, OUT_DIR_ENV, main
from hydrobohm.reports import VerificationReport, format_cell


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLevels:
    def test_table_and_exit_code(self, capsys):
        code, out, err = run(capsys, "levels", "--n-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,energy,ratio,expected"
        assert lines[1] == "1,-0.5,1,1"
        assert lines[3].startswith("3,-0.0555555555556,0.111111111111,")
        assert "cases: 3  passes: 3" in out
        assert "wall time:" in err and "wall time" not in out

    def test_csv_export(self, capsys, tmp_path):
        target = tmp_path / "levels.csv"
        code, _, _ = run(capsys, "levels", "--n-max", "2", "--out", str(target))
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,energy,ratio,expected,rel_error,pass"
        assert lines[1].startswith("1,-0.5,1,1,")
        assert lines[1].endswith(",true")

    def test_json_cases_in_numeric_order_past_99(self, capsys, tmp_path):
        target = tmp_path / "levels.json"
        code, _, _ = run(capsys, "levels", "--n-max", "100", "--format", "json", "--out", str(target))
        assert code == 0
        ids = [case["case_id"] for case in json.loads(target.read_text(encoding="utf-8"))["report"]["cases"]]
        assert ids == [f"n={n:02d}" for n in range(1, 101)]


class TestFlatness:
    def test_full_shell_set_passes(self, capsys):
        code, out, _ = run(capsys, "flatness", "--n-max", "5", "--method", "analytic")
        assert code == 0
        assert "cases: 55  passes: 55" in out

    def test_corrupted_energy_reference_fails(self, capsys, monkeypatch):
        true_energy = campaigns.energy_level
        monkeypatch.setattr(
            campaigns, "energy_level", lambda n, constants: true_energy(n, constants) * (1.0 + 1e-3)
        )
        code, out, _ = run(capsys, "flatness", "--n-max", "2", "--method", "analytic")
        assert code == 1
        assert "FAIL" in out

    def test_fd_method_with_unreachable_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "flatness", "--n-max", "1", "--method", "fd", "--tol", "1e-12"
        )
        assert code == 1
        assert "FAIL n=01 l=00 m=+00" in out

    def test_circular_policy_case_count(self, capsys):
        code, out, _ = run(capsys, "flatness", "--n-max", "3", "--circular")
        assert code == 0
        assert "cases: 9  passes: 9" in out


class TestBohrRadii:
    def test_stdout_header_is_pinned(self, capsys):
        code, out, _ = run(capsys, "bohr-radii", "--n-max", "3")
        assert code == 0
        assert out.splitlines()[0] == "n,r_peak,expected,rel_error,pass"

    def test_csv_header_is_pinned(self, capsys, tmp_path):
        target = tmp_path / "radii.csv"
        code, _, _ = run(capsys, "bohr-radii", "--n-max", "4", "--out", str(target))
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,r_peak,expected,rel_error,pass"
        assert len(lines) == 5
        assert all(line.endswith("true") for line in lines[1:])

    def test_json_round_trip(self, capsys, tmp_path):
        target = tmp_path / "radii.json"
        code, _, _ = run(
            capsys, "bohr-radii", "--n-max", "3", "--format", "json", "--out", str(target)
        )
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        report = VerificationReport.from_dict(payload["report"])
        assert report.all_passed and report.case_count == 3
        assert payload["table"][2]["expected"] == 9.0


class TestAiry:
    def test_single_time_run(self, capsys):
        code, out, _ = run(capsys, "airy", "--B", "1.0", "--times", "0,0.3")
        assert code == 0
        assert out.splitlines()[0] == "t,x_peak,expected"
        assert "cases: 10  passes: 10" in out

    def test_rejects_empty_times(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["airy", "--times", ","])
        assert excinfo.value.code == 2

    def test_negative_time_list_parses_in_both_spellings(self, capsys):
        spaced = run(capsys, "airy", "--times", "-1,0.5")
        joined = run(capsys, "airy", "--times=-1,0.5")
        assert spaced[0] == 0
        assert spaced[:2] == joined[:2]
        assert "cases: 10  passes: 10" in spaced[1]


class TestProfile:
    def test_csv_profile(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys, "profile", "--state", "2,1,0", "--quantity", "V_q", "--out", str(target)
        )
        assert code == 0
        assert f"wrote {target}" in out
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r,value,masked"
        kept = [line.split(",") for line in lines[1:] if line.endswith("false")]
        values = {cell[1] for cell in kept}
        assert values == {"-0.125"}

    def test_svg_profile(self, capsys, tmp_path):
        target = tmp_path / "curve.svg"
        code, _, _ = run(
            capsys,
            "profile", "--state", "airy", "--quantity", "P", "--format", "svg",
            "--out", str(target),
        )
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("<svg") and "<polyline" in text

    def test_json_profile_masks_become_null(self, capsys, tmp_path):
        target = tmp_path / "curve.json"
        code, _, _ = run(
            capsys,
            "profile", "--state", "3,0,0", "--quantity", "V_bohm", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        masked = [row for row in payload["rows"] if row["masked"]]
        assert masked and all(row["value"] is None for row in masked)
        clear = [row for row in payload["rows"] if not row["masked"]]
        assert all(isinstance(row["value"], float) for row in clear)

    def test_negative_exponent_time_parses_in_both_spellings(self, capsys, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        argv = ("profile", "--state", "airy", "--out")
        assert run(capsys, *argv, str(spaced), "--time", "-1e-3")[0] == 0
        assert run(capsys, *argv, str(joined), "--time=-1e-3")[0] == 0
        assert spaced.read_bytes() == joined.read_bytes()

    def test_out_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--state", "1,0,0"])
        assert excinfo.value.code == 2

    def test_invalid_state_is_a_usage_error(self, capsys, tmp_path):
        # The parser checks every quantum-number rule, n's limit among them
        # (TestLimits), so nothing is evaluated and the message names --state.
        for text, rule in (
            ("1,1,0", "l must satisfy l <= n - 1"),
            ("0,0,0", "n must satisfy n >= 1"),
            ("3,1,2", "m must satisfy |m| <= l"),
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["profile", "--state", text, "--out", str(tmp_path / "x.csv")])
            assert excinfo.value.code == 2, text
            out, err = capsys.readouterr()
            assert out == "" and not (tmp_path / "x.csv").exists(), text
            assert f"error: argument --state: {rule}\n" in err, err


class TestStateNMax:
    def test_bohr_radii_at_the_limit_runs(self, capsys):
        code, out, _ = run(capsys, "bohr-radii", "--n-max", "100")
        assert code == 0
        assert "cases: 100  passes: 100" in out

    def test_profile_state_at_the_limit_runs(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        code, _, _ = run(capsys, "profile", "--state", "100,99,0", "--out", str(target))
        assert code == 0
        assert target.exists()

    def test_fd_flatness_above_30_is_a_usage_error_naming_the_limit(self, capsys):
        code, out, err = run(capsys, "flatness", "--n-max", "31", "--method", "fd")
        assert code == 2
        assert out == ""
        assert "error: --n-max must be <= 30 with --method fd, got 31" in err

    def test_fd_flatness_at_its_limit_runs(self, capsys):
        # Every (n, l, m) with n <= 30 passes by differences.
        code, out, _ = run(capsys, "flatness", "--n-max", "30", "--method", "fd")
        assert code == 0
        assert "cases: 9455  passes: 9455" in out

    def test_levels_has_no_such_limit(self, capsys):
        code, out, _ = run(capsys, "levels", "--n-max", "101")
        assert code == 0
        assert "cases: 101  passes: 101" in out


class TestAiryTimes:
    @pytest.mark.parametrize(
        "times, repeated", [("0.3,0.3", "0.3"), ("0.1,1e-1", "0.1"), ("0,1,-0", "-0")]
    )
    def test_repeated_instant_is_a_usage_error_naming_times(self, times, repeated, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["airy", "--times", times])
        assert excinfo.value.code == 2
        assert f"argument --times: times repeat the instant {repeated}" in capsys.readouterr().err

    def test_instants_with_one_case_id_are_a_usage_error_naming_both(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["airy", "--times", "0.1234567,0.1234568"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --times: instants 0.1234567 and 0.1234568 both give the case id t=0.123457" in err

    @pytest.mark.parametrize(
        "argv, time_option",
        [
            (["airy", "--B", "1", "--times", "10"], "--times 10"),
            (["airy", "--B", "100", "--times", "0.5"], "--times 0.5"),
            (["airy", "--B", "2", "--times", "0,-2"], "--times -2"),
            (["profile", "--state", "airy", "--time", "10", "--out", "x.csv"], "--time 10"),
            (["profile", "--state", "airy", "--quantity", "residual", "--time", "10", "--out", "x.csv"], "--time 10"),
        ],
    )
    def test_packet_past_the_airy_range_is_a_usage_error_naming_the_options(
        self, argv, time_option, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --B ")
        assert f" with {time_option} reads Ai at |u| up to " in err
        assert not list(tmp_path.iterdir())

    def test_profile_without_ai_keeps_accepting_any_time(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        argv = ["profile", "--state", "airy", "--quantity", "V_q", "--time", "10", "--out", str(target)]
        assert run(capsys, *argv)[0] == 0
        assert target.exists()


class TestAiryStrengthLimit:
    def test_airy_at_the_limit_runs(self, capsys):
        code, out, _ = run(capsys, "airy", "--B", repr(LIMITS["B"].high), "--times", "0")
        assert code == 0
        assert "cases: 5  passes: 5" in out

    def test_profile_at_the_limit_runs(self, capsys, tmp_path):
        target = tmp_path / "x.csv"
        argv = ["profile", "--state", "airy", "--quantity", "V_q", "--B", repr(LIMITS["B"].high), "--out", str(target)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert target.exists()

    def test_airy_at_the_lower_limit_runs_with_floating_point_errors_raised(self, capsys):
        # The default times; below the limit the stencil weights overflow.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code, out, _ = run(capsys, "airy", "--B", repr(LIMITS["B"].low))
        assert code == 0
        assert "cases: 15  passes: 15" in out

    @pytest.mark.parametrize("quantity", ["residual", "j"])
    def test_profile_at_the_lower_limit_runs_with_floating_point_errors_raised(self, quantity, capsys, tmp_path):
        target = tmp_path / "x.csv"
        argv = ["profile", "--state", "airy", "--quantity", quantity, "--time", "0.5", "--B", repr(LIMITS["B"].low)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            code, _, _ = run(capsys, *argv, "--out", str(target))
        assert code == 0
        assert target.exists()


def _option(use: str) -> str:
    """The option a limit's command line sets: the token before the number."""
    tokens = use.split()
    return next(tokens[i - 1] for i, token in enumerate(tokens) if "{}" in token)


def _past_each_end(row) -> list[tuple]:
    """The nearest values outside [low, high], each with the bound it passes."""
    if isinstance(row.low, int):
        return [(row.low - 1, row.low), (row.high + 1, row.high)]
    return [(math.nextafter(row.low, 0.0), row.low), (math.nextafter(row.high, math.inf), row.high)]


def _usage_error(capsys, argv: list[str]) -> str:
    """stderr of a refused command line: argparse exits 2, a command returns 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "", (argv, code, out)
    return err


class TestLimits:
    @pytest.mark.parametrize(
        "row, use",
        [(row, use) for row in LIMITS.values() for use in row.uses],
        ids=[f"{name}-{use.split()[0]}" for name, row in LIMITS.items() for use in row.uses],
    )
    def test_bounds_are_accepted_and_the_next_values_refused(self, row, use, capsys):
        option = _option(use)
        for bound in (row.low, row.high):
            args = cli._build_parser().parse_args(use.format(repr(bound)).split())
            assert repr(bound) in repr(args)
        for value, bound in _past_each_end(row):
            err = _usage_error(capsys, use.format(repr(value)).split())
            assert option in err and f"{bound:g}" in err, err
        err = _usage_error(capsys, use.format("abc").split())
        assert f"argument {option}: must be " in err and "got 'abc" in err, err
        assert re.search(r"(?<!\w)_[a-z]", err) is None, err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["flatness", "--n-max", "101"], "argument --n-max: must be <= 100, got 101"),
            (["profile", "--state", "101,100,0", "--out", "x.csv"], "argument --state: n must be <= 100, got 101"),
            (["bohr-radii", "--n-max", "10001"], "argument --n-max: must be <= 10000, got 10001"),
            (["levels", "--n-max", "10001"], "argument --n-max: must be <= 10000, got 10001"),
            (["airy", "--B", "1e300"], "argument --B: must be <= 100, got 1e+300"),
            (["profile", "--state", "airy", "--B", "1e-300", "--out", "x.csv"], "argument --B: must be >= 1e-100, got 1e-300"),
        ],
    )
    def test_messages_keep_their_words(self, argv, message, capsys):
        assert message in _usage_error(capsys, argv)

    @pytest.mark.parametrize("name", list(LIMITS))
    def test_readme_lists_the_row(self, name):
        row = LIMITS[name]
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        items = [" ".join(item.split()) for item in re.split(r"\n(?=- )", text)]
        wanted = [f"`{use[: use.index(' {}')]}`" for use in row.uses] + [f"{row.low:g} to {row.high:g}"]
        assert any(all(part in item for part in wanted) for item in items), wanted


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["levels"],
            ["levels", "--n-max", "0"],
            ["flatness", "--n-max", "2", "--method", "spectral"],
            ["bohr-radii", "--n-max", "-3"],
            ["airy", "--B", "-1"],
            ["profile", "--state", "oxygen", "--out", "x.csv"],
            ["no-such-command"],
        ],
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "option, argv",
        [
            ("--B", ["airy", "--B", "inf"]),
            ("--B", ["airy", "--B", "nan"]),
            ("--times", ["airy", "--times", "nan"]),
            ("--times", ["airy", "--times", "0,inf"]),
            ("--times", ["airy", "--times=-inf"]),
            ("--tol", ["flatness", "--n-max", "1", "--tol", "nan"]),
            ("--tol", ["airy", "--tol", "inf"]),
            ("--time", ["profile", "--state", "airy", "--time", "nan", "--out", "x.csv"]),
            ("--time", ["profile", "--state", "airy", "--time=-inf", "--out", "x.csv"]),
            ("--B", ["profile", "--state", "airy", "--B", "inf", "--out", "x.csv"]),
        ],
    )
    def test_usage_error_names_the_option(self, option, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option}: must be finite" in capsys.readouterr().err


class TestSharedParser:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_valid_call_after_a_usage_error_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--state", "1,0,0", "--quantity", "nope", "--out", "x.csv"])
        assert excinfo.value.code == 2
        code, out, _ = run(capsys, "levels", "--n-max", "3")
        assert code == 0
        assert out.startswith("n,energy,ratio,expected\n")

    def test_no_default_leaks_between_subcommands(self, capsys, tmp_path):
        code, _, _ = run(capsys, "profile", "--state", "2,1,1", "--format", "svg", "--out", str(tmp_path / "p.svg"))
        assert code == 0
        target = tmp_path / "x.csv"
        code, _, _ = run(capsys, "levels", "--n-max", "3", "--out", str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8").startswith("n,energy,ratio,expected,rel_error,pass\n")


class TestOutputDirectoryRedirect:
    def test_relative_paths_land_in_env_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "nested"))
        code, _, _ = run(capsys, "levels", "--n-max", "2", "--out", "levels.csv")
        assert code == 0
        assert (tmp_path / "nested" / "levels.csv").exists()

    def test_absolute_paths_ignore_the_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "nested"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(capsys, "levels", "--n-max", "2", "--out", str(target))
        assert code == 0
        assert target.exists()
        assert not (tmp_path / "nested").exists()


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error naming the path, before any work."""

    @pytest.fixture(autouse=True)
    def campaigns_never_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign ran before the output path was refused")

        for name in ("run_levels", "run_flatness", "profile_curve"):
            monkeypatch.setattr(cli, name, refuse)

    def check(self, capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err and "wall time" not in err

    @pytest.mark.parametrize("command", [("levels", "--n-max", "2"), ("flatness", "--n-max", "2", "--format", "json")])
    def test_report_command(self, command, capsys, tmp_path):
        missing = tmp_path / "missing-dir" / "x.out"
        self.check(capsys, missing, *command, "--out", str(missing))
        self.check(capsys, tmp_path, *command, "--out", str(tmp_path))

    def test_fd_flatness_at_its_limit_is_refused_at_once(self, capsys, tmp_path):
        missing = tmp_path / "missing-dir" / "x.csv"
        self.check(capsys, missing, "flatness", "--n-max", "30", "--method", "fd", "--out", str(missing))

    def test_profile(self, capsys, tmp_path):
        missing = tmp_path / "missing-dir" / "p.csv"
        self.check(capsys, missing, "profile", "--state", "1,0,0", "--out", str(missing))
        assert not missing.parent.exists()

    def test_parent_that_is_a_file(self, capsys, tmp_path):
        occupied = tmp_path / "occupied"
        occupied.write_text("", encoding="utf-8")
        self.check(capsys, occupied / "x.csv", "levels", "--n-max", "2", "--out", str(occupied / "x.csv"))
        assert occupied.read_text(encoding="utf-8") == ""

    def test_out_dir_env_that_is_a_file(self, capsys, tmp_path, monkeypatch):
        occupied = tmp_path / "occupied"
        occupied.write_text("", encoding="utf-8")
        monkeypatch.setenv(OUT_DIR_ENV, str(occupied))
        self.check(capsys, occupied, "levels", "--n-max", "2", "--out", "levels.csv")
        self.check(capsys, occupied, "profile", "--state", "1,0,0", "--out", "p.csv")

    def test_an_existing_file_is_kept_until_the_write(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "levels.csv"
        target.write_text("old", encoding="utf-8")

        def stop(*args, **kwargs):
            raise ValueError("stopped")

        monkeypatch.setattr(cli, "run_levels", stop)
        code, out, err = run(capsys, "levels", "--n-max", "2", "--out", str(target))
        assert (code, out, err) == (2, "", "error: stopped\n")
        assert target.read_text(encoding="utf-8") == "old"


class TestWrittenRecords:
    """The --out records are the campaign's records, on any CPU (no pins marker)."""

    @pytest.mark.parametrize(
        "argv, build",
        [
            (("flatness", "--n-max", "3"), lambda: campaigns.run_flatness(3)),
            (("airy", "--times", "0,0.3"), lambda: campaigns.run_airy(1.0, (0, 0.3))[0]),
        ],
        ids=["flatness", "airy"],
    )
    def test_csv_and_json_hold_the_sorted_records(self, argv, build, capsys, tmp_path):
        records = build().sorted_cases()
        csv_path, json_path = tmp_path / "cases.csv", tmp_path / "cases.json"
        assert run(capsys, *argv, "--format", "csv", "--out", str(csv_path))[0] == 0
        assert run(capsys, *argv, "--format", "json", "--out", str(json_path))[0] == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "case_id,computed,expected,abs_error,rel_error,pass"
        assert lines[1:] == [",".join(map(format_cell, record)) for record in records]
        report = VerificationReport.from_dict(json.loads(json_path.read_text(encoding="utf-8"))["report"])
        assert [tuple(case) for case in report.cases] == [tuple(record) for record in records]


class TestDeterminism:
    def test_json_reports_are_byte_identical_across_runs(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        for target in (first, second):
            code, _, _ = run(
                capsys, "flatness", "--n-max", "3", "--format", "json", "--out", str(target)
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_profile_csv_is_byte_identical_across_runs(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (first, second):
            code, _, _ = run(
                capsys, "profile", "--state", "2,1,1", "--quantity", "P", "--out", str(target)
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
