"""Command-line interface: exit codes, file outputs, determinism."""

import json

import numpy as np
import pytest

import hydrobohm.campaigns as campaigns
from hydrobohm.cli import OUT_DIR_ENV, main
from hydrobohm.reports import VerificationReport


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
        code, _, err = run(
            capsys, "profile", "--state", "1,1,0", "--out", str(tmp_path / "x.csv")
        )
        assert code == 2
        assert "error:" in err


class TestStateNMax:
    @pytest.mark.parametrize("command", ["flatness", "bohr-radii"])
    def test_above_100_is_a_usage_error_naming_the_limit(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n-max", "101"])
        assert excinfo.value.code == 2
        assert "argument --n-max: must be <= 100, got 101" in capsys.readouterr().err

    def test_bohr_radii_at_the_limit_runs(self, capsys):
        code, out, _ = run(capsys, "bohr-radii", "--n-max", "100")
        assert code == 0
        assert "cases: 100  passes: 100" in out

    def test_levels_has_no_such_limit(self, capsys):
        code, out, _ = run(capsys, "levels", "--n-max", "101")
        assert code == 0
        assert "cases: 101  passes: 101" in out


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
