"""Verification campaign drivers and profile curves."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

import hydrobohm.airy as airy
import hydrobohm.campaigns as campaigns
import hydrobohm.cli as cli
import hydrobohm.hydrogen as hydrogen
import hydrobohm.madelung as madelung
import hydrobohm.specfun as specfun
from hydrobohm import (
    bohm_potential_analytic,
    energy_level,
    radial_distribution,
    radial_peaks,
    state,
)
from hydrobohm.campaigns import (
    AIRY_TOL,
    AiryRangeError,
    BOHR_RADII_TOL,
    FLATNESS_ANALYTIC_TOL,
    FLATNESS_FD_TOL,
    LEVELS_TOL,
    default_airy_grid,
    default_hydrogen_grid,
    profile_curve,
    run_airy,
    run_bohr_radii,
    run_flatness,
    run_levels,
)
from hydrobohm import AiryPacketParams, atomic_units, make_axis_grid
from hydrobohm.reports import make_case

import oracles

AU = atomic_units()


class TestDefaultGrids:
    def test_hydrogen_grid_scales_with_n_max(self):
        grid = default_hydrogen_grid(5, AU)
        assert grid.law == "logarithmic"
        assert grid.count == 4000
        assert grid.points[0] == pytest.approx(0.05)
        assert grid.points[-1] == pytest.approx(300.0)

    def test_airy_grid_scales_with_beta(self):
        params = AiryPacketParams(strength=2.0, constants=AU)
        grid = default_airy_grid(params)
        assert grid.count == 8000
        assert grid.points[0] == pytest.approx(-7.5)
        assert grid.points[-1] == pytest.approx(5.0)


class TestAtomicUnitsOnly:
    # The tolerances are atomic-unit numbers, so the campaigns take no unit
    # system; a unit system passed where one used to go is refused.
    @pytest.mark.parametrize(
        "call",
        [
            lambda: run_levels(2, AU),
            lambda: run_flatness(2, AU),
            lambda: run_bohr_radii(2, AU),
            lambda: run_airy(1.0, (0.0,), AU),
            lambda: profile_curve((1, 0, 0), "P", AU),
        ],
        ids=["levels", "flatness", "bohr-radii", "airy", "profile"],
    )
    def test_constants_by_position_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()


class TestRunLevels:
    def test_ratio_rows(self):
        report, rows = run_levels(4)
        assert report.all_passed
        assert report.tolerance == LEVELS_TOL
        assert [row[0] for row in rows] == [1, 2, 3, 4]
        assert rows[2][1] == pytest.approx(energy_level(3, AU))
        assert rows[2][2] == pytest.approx(1.0 / 9.0)
        assert rows[2][3] == pytest.approx(1.0 / 9.0)

    def test_case_ids_are_zero_padded(self):
        report, _ = run_levels(12)
        ids = [case.case_id for case in report.sorted_cases()]
        assert ids[0] == "n=01"
        assert ids == sorted(ids)


class TestRunFlatness:
    def test_circular_policy_keeps_only_maximal_l(self):
        report = run_flatness(4, policy="circular")
        # One case per (n, l=n-1, m): sum of 2n-1 for n <= 4.
        assert report.case_count == 16
        assert report.all_passed
        assert report.tolerance == FLATNESS_ANALYTIC_TOL
        for case in report.sorted_cases():
            n = int(case.case_id.split(" ")[0].split("=")[1])
            l = int(case.case_id.split(" ")[1].split("=")[1])
            assert l == n - 1

    def test_all_lm_policy_counts_degeneracies(self):
        report = run_flatness(3, policy="all-lm")
        assert report.case_count == 14  # sum of n^2 for n <= 3
        assert report.all_passed
        ids = [case.case_id for case in report.sorted_cases()]
        assert "n=03 l=02 m=-02" in ids

    def test_fd_method_within_its_tolerance(self):
        report = run_flatness(2, method="fd")
        assert report.all_passed
        assert report.max_abs_error < 1e-4

    def test_fd_deviations_match_the_five_point_oracle(self):
        # Each (n, l) rebuilt on its own grid from the public radial_R and
        # differenced by whole-grid numpy expressions of the five-point
        # formulas (oracles.fd_flatness_reference).
        report = run_flatness(7, method="fd")
        assert report.all_passed
        computed = {case.case_id[:9]: case.computed for case in report.cases}
        for n in range(1, 8):
            for l in range(n):
                deviation = oracles.fd_flatness_reference(n, l)[3]
                assert computed[f"n={n:02d} l={l:02d}"] == deviation, (n, l)

    def test_fd_states_at_the_cli_limit_read_a_tenth_of_the_tolerance(self):
        # cli.LIMITS["fd"] was set by a sweep over every (n, l) with
        # n <= 30; these are the worst l = 0 states and the ends of shell 30.
        assert cli.LIMITS["fd"].high == 30
        deviations = {}
        for n, ls in ((30, (0, 1, 29)), (29, (0,))):
            e_n = float(energy_level(n, AU))
            deviations.update(zip(((n, l) for l in ls), campaigns._fd_shell(n, ls, AU, e_n)))
        assert all(0.0 < value <= 0.1 * FLATNESS_FD_TOL for value in deviations.values()), deviations

    @pytest.mark.parametrize("n, l", [(5, 1), (8, 0)])
    def test_fd_stencil_error_falls_at_fourth_order(self, n, l, monkeypatch):
        # Halving h from 4e-2 a must cut the deviation at least 8-fold (16 at
        # pure fourth order); the second-order stencil only manages about 4.
        e_n = float(energy_level(n, AU))
        deviations = []
        for step in (4e-2, 2e-2):
            monkeypatch.setattr(campaigns, "FD_FLATNESS_STEP", step)
            deviations.append(campaigns._fd_shell(n, (l,), AU, e_n)[0])
        assert deviations[0] >= 8.0 * deviations[1], deviations
        second = [oracles.fd_flatness_reference(n, l, step, order=2)[3] for step in (4e-2, 2e-2)]
        assert second[0] < 8.0 * second[1], second

    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_fd_check_fails_on_an_energy_off_by_ten_tolerances(self, n):
        # A negative control at the default step and floor: E_n taken
        # 10 x tol = 1e-3 too high in magnitude must fail the check.
        e_n = float(energy_level(n, AU))
        right, = campaigns._fd_shell(n, (0,), AU, e_n)
        wrong, = campaigns._fd_shell(n, (0,), AU, e_n * (1.0 + 10.0 * FLATNESS_FD_TOL))
        assert make_case("right", right, 0.0, FLATNESS_FD_TOL, metric="abs").passed
        assert not make_case("wrong", wrong, 0.0, FLATNESS_FD_TOL, metric="abs").passed

    @pytest.mark.parametrize("n, l", [(1, 0), (7, 0), (20, 0), (20, 19)])
    def test_analytic_check_fails_on_an_energy_off_by_ten_tolerances(self, n, l):
        # A negative control near the tolerance, on run_flatness(20)'s grid
        # and floor: E_n moved by 10 x tol = 1e-7 either way must fail (the
        # deviation reads about 1e-7), and the true E_n must pass.
        r = default_hydrogen_grid(20, AU).points
        external = madelung.coulomb_profile(AU, r).values
        e_n = float(energy_level(n, AU))
        wrong = [e_n * (1.0 + sign * 10.0 * FLATNESS_ANALYTIC_TOL) for sign in (-1.0, 1.0)]
        for energy, passes in [(e_n, True)] + [(value, False) for value in wrong]:
            ((values, usable),) = madelung._bohm_shell(n, (l,), AU, r)
            deviation = campaigns._flatness_deviation(external, values, usable, energy)
            case = make_case("c", deviation, 0.0, FLATNESS_ANALYTIC_TOL, metric="abs")
            assert case.passed is passes, (energy, deviation)

    def test_analytic_check_fails_on_l2_from_the_wrong_term_of_the_shared_chain(self, monkeypatch):
        # A negative control on the shell walk: L'' of (n, l) is the previous
        # term of the L chain of (n, l + 1).  Handing back the current term
        # instead must fail every (n, l) that reads the shared L''
        # (n - l - 1 >= 2) at every m, and leave the other pairs passing.
        pair = specfun._laguerre_pair
        monkeypatch.setattr(madelung, "_laguerre_pair", lambda k, alpha, x: (pair(k, alpha, x)[0],) * 2)
        report = run_flatness(20)
        shared = {(n, l) for n in range(1, 21) for l in range(n) if n - l - 1 >= 2}
        assert len(shared) == 171 and report.case_count == sum(n * n for n in range(1, 21))
        for case in report.cases:
            n, l = int(case.case_id[2:4]), int(case.case_id[7:9])
            assert case.passed is ((n, l) not in shared), case.case_id

    def test_non_finite_deviation_on_a_usable_point_warns(self):
        # The analytic shell divides with numpy's warnings off on every
        # point; a fault on a usable point must still reach the caller.
        usable = np.array([True, True, False])
        with pytest.warns(RuntimeWarning, match="non-finite"):
            deviation = campaigns._flatness_deviation(np.zeros(3), np.array([1.0, np.nan, 2.0]), usable, -0.5)
        assert math.isnan(deviation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert campaigns._flatness_deviation(np.zeros(3), np.array([1.0, 2.0, np.inf]), usable, -0.5) == 5.0

    def test_analytic_sweep_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_flatness(12).all_passed

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            run_flatness(2, policy="everything")
        with pytest.raises(ValueError):
            run_flatness(2, method="spectral")


class TestBlockedFdShell:
    def test_small_blocks_keep_the_per_state_bits(self, monkeypatch):
        # R_nl is assembled in blocks of FD_BLOCK_POINTS.  Blocks chosen so
        # that a block edge sits on each side of a mask boundary, and that
        # some grid ends in a block of 1 point, give the bits of the
        # whole-grid oracle.
        reference = {(n, l): oracles.fd_flatness_reference(n, l) for n in range(1, 8) for l in range(n)}
        sizes = [campaigns._flatness_fd_grid(n, AU).count for n in range(1, 8)]
        assert sizes[-1] < campaigns.FD_BLOCK_POINTS  # shells n <= 7 are one block by default
        candidates = range(1024, sizes[-1])
        blocks = {next(b for b in candidates if any(size % b == 1 for size in sizes))}
        edges = {}
        for _, _, node_mask, _ in reference.values():
            usable = ~node_mask
            for t in np.flatnonzero(usable[1:] != usable[:-1]) + 1:
                if t in candidates:
                    edges.setdefault(bool(usable[t]), t)
        assert set(edges) == {False, True}  # usable -> masked, masked -> usable
        blocks |= set(edges.values())
        for block in sorted(blocks):
            monkeypatch.setattr(campaigns, "FD_BLOCK_POINTS", block)
            report = run_flatness(7, method="fd")
            computed = {case.case_id[:9]: case.computed for case in report.cases}
            for (n, l), (_, _, _, deviation) in reference.items():
                assert computed[f"n={n:02d} l={l:02d}"] == deviation, (block, n, l)

    @pytest.mark.parametrize(
        "n, ls",
        [*(pytest.param(n, range(n), id=f"n{n}-all-l") for n in range(1, 13)), pytest.param(30, (0, 14, 29), id="n30-l0,14,29")],
    )
    def test_assembly_stop_keeps_the_whole_grid_deviations(self, n, ls):
        # Shells n >= 10 span more than one block and stop assembling R_nl
        # past the outer turning point; the deviations must be the
        # whole-grid oracle's, bit for bit.
        e_n = float(energy_level(n, AU))
        for l, deviation in zip(ls, campaigns._fd_shell(n, ls, AU, e_n)):
            assert deviation == oracles.fd_flatness_reference(n, l)[3], (n, l)

    @pytest.mark.parametrize("n, whole", [(9, True), (30, False)])
    def test_assembly_of_a_multi_block_shell_ends_before_the_grid(self, n, whole, monkeypatch):
        assembled = []
        radial = campaigns._radial_from_laguerre

        def counted(n, l, a, rho, *args, **kwargs):
            assembled.append(rho.size)
            return radial(n, l, a, rho, *args, **kwargs)

        monkeypatch.setattr(campaigns, "_radial_from_laguerre", counted)
        campaigns._fd_shell(n, (0,), AU, float(energy_level(n, AU)))
        count = campaigns._flatness_fd_grid(n, AU).count
        if whole:  # one block: the whole grid, in one call
            assert assembled == [count]
        else:
            assert len(assembled) > 1 and sum(assembled) < count
            assert sum(assembled) % campaigns.FD_BLOCK_POINTS == 0
            assert campaigns._flatness_fd_grid(n, AU).points[sum(assembled) - 1] > 2.0 * n * n

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stencil_windows_tile_the_one_window_bits(self, dtype):
        rng = np.random.default_rng(7)
        coords = 1.0 + 0.01 * np.arange(40)
        field = (1.0 + rng.random(40)).astype(dtype)
        whole = madelung._radial_fd_bohm(field, coords, 0.01, AU, 2, 2, 38)
        for cuts in ([2, 20, 36, 37, 38], [2, 3, 5, 35, 38], [2, 38]):
            tiled = np.concatenate([
                madelung._radial_fd_bohm(field, coords, 0.01, AU, 2, lo, hi)
                for lo, hi in zip(cuts[:-1], cuts[1:])
            ])
            assert tiled.tobytes() == whole.tobytes(), cuts


def _count_calls(monkeypatch, *names, modules=(campaigns,)):
    """Wrap each name at every module that binds it; returns name -> call count."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        bound = [module for module in modules if hasattr(module, name)]
        assert bound, f"{name} is bound in none of the counted modules"
        for module in bound:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


class TestSharedWork:
    @pytest.mark.parametrize("n_max", [1, 2, 6])
    def test_flatness_runs_2n_minus_1_recurrences_per_shell(self, n_max, monkeypatch):
        # Shell n: one chain per l for L and one per l < n - 1 for L'; L''
        # of (n, l) is read off the L chain of (n, l + 1).  Sum of 2n - 1.
        counts = _count_calls(monkeypatch, "_laguerre_pair", modules=(madelung, specfun))
        report = run_flatness(n_max)
        assert report.case_count == sum(n * n for n in range(1, n_max + 1))
        assert counts == {"_laguerre_pair": n_max * n_max}

    @pytest.mark.parametrize("n, l, chains", [(6, 5, 1), (6, 4, 2), (6, 3, 3), (6, 0, 3)])
    def test_one_state_reads_three_recurrences(self, n, l, chains, monkeypatch):
        # Alone, a state with k = n - l - 1 >= 2 runs its own L'' chain.
        counts = _count_calls(monkeypatch, "_laguerre_pair", modules=(madelung, specfun))
        bohm_potential_analytic(state(n, l), default_hydrogen_grid(n, AU))
        assert counts == {"_laguerre_pair": chains}

    def test_flatness_makes_one_case_record_per_n_l(self, monkeypatch):
        counts = _count_calls(monkeypatch, "make_case")
        report = run_flatness(6)
        assert counts == {"make_case": 21}
        assert [case.case_id for case in report.cases] == [
            f"n={n:02d} l={l:02d} m={m:+03d}" for n in range(1, 7) for l in range(n) for m in range(-l, l + 1)
        ]
        by_n_l = {}
        for case in report.cases:
            by_n_l.setdefault(case.case_id[:9], set()).add(case[1:])
        assert len(by_n_l) == 21 and all(len(numbers) == 1 for numbers in by_n_l.values())

    def test_flatness_masks_nodes_from_the_laguerre_values_in_hand(self, monkeypatch):
        counts = _count_calls(monkeypatch, "node_mask", "radial_R", modules=(hydrogen, madelung, campaigns))
        run_flatness(6)
        assert counts == {"node_mask": 0, "radial_R": 0}

    def test_peak_bisection_evaluates_the_slope_once_per_midpoint_tree(self, monkeypatch):
        # The scan-and-tree peak oracle, which pins the bits of radial_peaks.
        counts = _count_calls(monkeypatch, "slope_sign", "radial_R_derivatives", modules=(oracles,))
        peaks = oracles.scan_peaks(state(100, 98))
        assert peaks.size == 2
        # One scan, then 25 bisection steps in trees of PEAK_TREE_LEVELS
        # levels, all on the sign of dP/dr: the normalized slope is not used.
        assert 2 <= counts["slope_sign"] <= 1 + math.ceil(25 / oracles.PEAK_TREE_LEVELS)
        assert counts["radial_R_derivatives"] == 0

    def test_circular_peak_reads_a_short_window_of_the_scan(self, monkeypatch):
        counts = _count_calls(monkeypatch, "laguerre", "_laguerre_pair", modules=(hydrogen, specfun))
        points = []
        window = hydrogen._peak_scan_window

        def counted_window(r_lo, r_hi, num, lo, hi):
            points.append(hi - lo)
            return window(r_lo, r_hi, num, lo, hi)

        monkeypatch.setattr(hydrogen, "_peak_scan_window", counted_window)
        assert radial_peaks(state(100, 99)).size == 1
        assert counts == {"laguerre": 0, "_laguerre_pair": 0}
        assert 0 < sum(points) < 64

    def test_airy_builds_each_polar_form_and_peak_once(self, monkeypatch):
        counts = _count_calls(
            monkeypatch,
            "airy_polar",
            "_packet_polar",
            "decompose",
            "_airy_peak",
            "airy_ai",
            modules=(campaigns, airy),
        )
        run_airy(1.0, (0, 0.3, 1))
        # 11 polar forms: 3 centre forms (one per time, with curvature) on the
        # envelope the Bohm check already evaluated, and 8 bracketing forms
        # straight from decompose.  Ai runs once per peak, once per centre and
        # once per distinct t^2 of a bracketing pair: the pair around t = 0
        # shares one evaluation, so 3 + 3 + (1 + 2 + 4) = 13 (14 before).
        assert counts == {
            "airy_polar": 0,
            "_packet_polar": 3,
            "decompose": 11,
            "_airy_peak": 3,
            "airy_ai": 13,
        }

    def test_airy_builds_the_stencil_weights_once_per_residual_grid(self, monkeypatch):
        # Acceleration, Hamilton-Jacobi, continuity and Euler differentiate
        # on one frozen residual grid per time: 3 builds, 12 before the cache.
        counts = _count_calls(monkeypatch, "_build_first_weights", modules=(madelung,))
        run_airy(1.0, (0, 0.3, 1))
        assert counts == {"_build_first_weights": 3}

    @pytest.mark.parametrize("read_only_view", [False, True], ids=["writeable", "read-only-view"])
    def test_continuity_sees_coordinates_that_change_between_calls(self, read_only_view):
        # Only a read-only array that owns its data keeps its weights; a
        # writeable array, or a read-only view of one, can change under them.
        rng = np.random.default_rng(11)
        base = np.cumsum(rng.uniform(0.02, 0.04, 400))
        coords = base.view() if read_only_view else base
        coords.setflags(write=not read_only_view)
        constants = atomic_units()
        pair = [madelung.decompose(np.exp(1j * (k * base + base**2)), coords, constants) for k in (1.0, 1.1)]
        results = []
        for _ in range(2):
            results.append(madelung.continuity_residual(*pair, 1e-3, constants))
            assert results[-1] == oracles.continuity_residual_reference(*pair, 1e-3, constants)
            base[200:] += rng.uniform(0.0, 0.01, 200).cumsum()
        assert results[0] != results[1]


class TestRunBohrRadii:
    def test_rows_match_peak_finder(self):
        report, rows = run_bohr_radii(5)
        assert report.all_passed
        for row, n in zip(rows, range(1, 6)):
            peak = radial_peaks(state(n, n - 1))[-1]
            assert row[1] == pytest.approx(peak, rel=1e-12)
            assert row[2] == pytest.approx(float(n * n), rel=1e-15)
            assert row[4] is True

    @pytest.mark.parametrize("side", [-1, 1])
    def test_control_fails_with_a_radius_off_by_ten_tolerances(self, side):
        # Negative control: the true peaks sit within 3.4e-11 of n^2 a, so
        # an expected radius moved by 10 x tol must fail every case.
        _, rows = run_bohr_radii(100)
        assert len(rows) == 100 and all(row[4] for row in rows)
        cases = [
            make_case(f"n={n:02d}", r_peak, expected * (1 + side * 10 * BOHR_RADII_TOL), BOHR_RADII_TOL)
            for n, r_peak, expected, _, _ in rows
        ]
        assert not any(case.passed for case in cases)


class TestRunAiry:
    @pytest.mark.parametrize("strength", [0.5, 1.0, 2.0])
    def test_control_fails_with_an_acceleration_off_by_ten_tolerances(self, strength):
        # Negative control: the mean quantum acceleration reads B^3/2m^2
        # to about 2e-7, so an expected value 10 x tol away must fail.
        report, _ = run_airy(strength, (0.0, 0.3, 1.0))
        accelerations = [case for case in report.cases if case.case_id.startswith("acceleration ")]
        assert len(accelerations) == 3 and all(case.passed for case in accelerations)
        true_accel = strength**3 / 2.0  # atomic units, m = 1
        assert all(case.expected == pytest.approx(true_accel, rel=1e-15) for case in accelerations)
        wrong = [
            make_case(case.case_id, case.computed, true_accel * (1 + 10 * AIRY_TOL), AIRY_TOL)
            for case in accelerations
        ]
        assert not any(case.passed for case in wrong)

    @pytest.mark.parametrize("strength", [0.5, 1.0, 2.0])
    def test_euler_control_fails_with_a_bohm_slope_off_by_ten_tolerances(self, strength, monkeypatch):
        # Negative control: V_Bohm scaled by 1 -+ 20 tol m/B^3 moves its
        # slope -B^3/2m by 10 x tol, so every Euler case must fail (they read
        # about 1e-4); the true V_Bohm must pass.
        closed_form = campaigns.airy_bohm_closed_form
        shift = 20.0 * AIRY_TOL * float(AU.mass) / strength**3
        for scale, passes in ((1.0, True), (1.0 - shift, False), (1.0 + shift, False)):
            def scaled(params, grid, t, scale=scale):
                profile = closed_form(params, grid, t)
                return dataclasses.replace(profile, values=scale * profile.values)

            monkeypatch.setattr(campaigns, "airy_bohm_closed_form", scaled)
            report, _ = run_airy(strength, (0.0, 0.3, 1.0))
            euler = [case for case in report.cases if case.case_id.startswith("euler ")]
            assert len(euler) == 3, euler
            assert all(case.passed is passes for case in euler), (scale, euler)

    def test_full_clause_coverage(self):
        report, rows = run_airy(1.0, (0.0, 0.3))
        assert report.all_passed
        assert report.tolerance == AIRY_TOL
        kinds = {case.case_id.split(" ")[0] for case in report.sorted_cases()}
        assert kinds == {"acceleration", "hj", "continuity", "euler", "trajectory"}
        assert report.case_count == 10
        assert len(rows) == 2
        assert float(rows[1][2]) == pytest.approx(0.25 * 0.3**2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_airy(-1.0, (0.0,))
        with pytest.raises(ValueError):
            run_airy(1.0, ())

    @pytest.mark.parametrize("times", [(0.3, 0.3), (0.1, 1e-1), (0.0, 1.0, -0.0)])
    def test_rejects_repeated_instants(self, times, monkeypatch):
        counts = _count_calls(monkeypatch, "airy_ai", modules=(campaigns, airy))
        with pytest.raises(ValueError, match="repeat the instant"):
            run_airy(1.0, times)
        assert counts == {"airy_ai": 0}

    @pytest.mark.parametrize("times", [(0.1234567, 0.1234568), (0.0, 1e-7, 1.0000001e-7)])
    def test_rejects_instants_that_share_a_case_id(self, times, monkeypatch):
        counts = _count_calls(monkeypatch, "airy_ai", modules=(campaigns, airy))
        with pytest.raises(ValueError, match=rf"{times[-2]!r} and {times[-1]!r} both give the case id t="):
            run_airy(1.0, times)
        assert counts == {"airy_ai": 0}

    def test_case_ids_of_accepted_times_are_distinct(self):
        report, _ = run_airy(1.0, (0.1234567, 0.123456, -0.0))
        ids = [case.case_id for case in report.cases]
        assert len(ids) == len(set(ids)) == 15

    def test_bracketing_forms_carry_no_curvature(self, monkeypatch):
        seen = {"hj": [], "continuity": [], "euler": []}

        def spy(kind, polars):
            original = getattr(campaigns, f"{kind}_residual")

            def wrapped(*args, **kwargs):
                seen[kind].extend(args[:polars])
                return original(*args, **kwargs)

            monkeypatch.setattr(campaigns, f"{kind}_residual", wrapped)

        spy("hj", 1)
        spy("continuity", 2)
        spy("euler", 2)
        run_airy(1.0, (0.0, 0.3, 1.0))
        assert len(seen["hj"]) == 3 and all(p.amplitude_d2 is not None for p in seen["hj"])
        assert len(seen["continuity"]) == 6 and len(seen["euler"]) == 6
        assert all(p.amplitude_d2 is None for p in seen["continuity"] + seen["euler"])

    @pytest.mark.parametrize("strength, times", [(1.0, (0.0, 10.0)), (100.0, (0.5,)), (2.0, (-2.0,))])
    def test_out_of_range_is_refused_before_any_evaluation(self, strength, times, monkeypatch):
        counts = _count_calls(monkeypatch, "airy_ai", modules=(campaigns, airy))
        with pytest.raises(AiryRangeError) as excinfo:
            run_airy(strength, times)
        assert counts == {"airy_ai": 0}
        assert (excinfo.value.strength, excinfo.value.time) == (strength, times[-1])
        assert excinfo.value.reach > excinfo.value.limit == 20.0

    # Last accepted input and the next float up: the trajectory grid sets the
    # edge in t at B = 1, the bracketing forms set the edge in B at t = 0.
    # The peak search reads Ai on the trajectory grid's whole span only when
    # its lobe window cannot hold the peak; with the reach check off, an
    # infinite off-lobe bound sends every instant to that whole-grid search,
    # the evaluation the trajectory span guards.
    @pytest.mark.parametrize(
        "strength, t, moved",
        [(1.0, 4.47213595499958, "t"), (122.33817698125047, 0.0, "B")],
        ids=["t-edge", "B-edge"],
    )
    def test_range_edge_is_the_edge_of_airy_ai(self, strength, t, moved, monkeypatch):
        report, _ = run_airy(strength, (t,))
        assert report.case_count == 5
        if moved == "t":
            t = math.nextafter(t, math.inf)
        else:
            strength = math.nextafter(strength, math.inf)
        with pytest.raises(AiryRangeError):
            run_airy(strength, (t,))
        monkeypatch.setattr(campaigns, "_check_airy_reach", lambda params, spans: None)
        monkeypatch.setattr(campaigns, "AIRY_OFF_LOBE_PEAK", math.inf)
        with pytest.raises(ValueError, match="airy_ai supports"):
            run_airy(strength, (t,))


# Every reach-accepted cell of this lattice is an instant whose peak
# _airy_peak finds on Ai's first lobe alone.
AIRY_PEAK_STRENGTHS = (1e-100, 1e-3, 0.03, 0.1, 0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 20.0, 30.0, 50.0, 100.0)
AIRY_PEAK_TIMES = (-1.0, 0.0, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)


def _record_airy_points(monkeypatch):
    """Point counts of each airy_ai call made through airy_psi."""
    points = []
    original = airy.airy_ai

    def recorded(u):
        points.append(np.size(u))
        return original(u)

    monkeypatch.setattr(airy, "airy_ai", recorded)
    return points


class TestAiryPeak:
    def test_lobe_window_finds_the_whole_grid_peak_on_every_accepted_cell(self):
        cells = 0
        for strength in AIRY_PEAK_STRENGTHS:
            params = AiryPacketParams(strength, AU)
            grid = default_airy_grid(params)
            for t in AIRY_PEAK_TIMES:
                try:
                    campaigns._check_airy_reach(params, [(t, t, grid.x_min, grid.x_max)])
                except AiryRangeError:
                    continue
                peak = campaigns._airy_peak(params, grid, t)
                assert peak.hex() == oracles.airy_peak_reference(params, grid, t).hex(), (strength, t)
                cells += 1
        assert cells == 106

    @pytest.mark.parametrize("strength", [0.5, 1.0, 2.0])
    def test_each_instant_reads_ai_on_under_a_thousand_points(self, strength, monkeypatch):
        params = AiryPacketParams(strength, AU)
        grid = default_airy_grid(params)
        points = _record_airy_points(monkeypatch)
        for t in (0.0, 0.3, 1.0):
            campaigns._airy_peak(params, grid, t)
        assert len(points) == 3 and max(points) <= 1000
        assert grid.count == 8000

    # At B = 1 (atomic units) u = x at t = 0.  A window whose maximum does
    # not beat the largest value off the lobe sends the search to the
    # whole grid; one cut by an end of the grid but holding the lobe's peak
    # does not need to.
    @pytest.mark.parametrize(
        "x_min, x_max, count, whole, off_lobe",
        [
            (-3.5, -2.0, 600, True, True),  # cut at the top: the second lobe's peak wins
            (-2.0, 6.0, 600, False, False),  # cut at the bottom, the lobe's peak inside
            (-15.0, 10.0, 11, True, False),  # a point at u = 0, none inside the lobe
            (-15.0, 8.04, 10, True, True),  # one lobe point, at u = -2.2, below the bound
        ],
    )
    def test_a_window_cut_by_the_grid_or_too_coarse_still_gives_the_whole_grid_peak(
        self, x_min, x_max, count, whole, off_lobe, monkeypatch
    ):
        params = AiryPacketParams(1.0, AU)
        grid = make_axis_grid(x_min, x_max, count)
        points = _record_airy_points(monkeypatch)
        peak = campaigns._airy_peak(params, grid, 0.0)
        assert (points[-1] == count) == whole
        assert peak.hex() == oracles.airy_peak_reference(params, grid, 0.0).hex()
        assert (peak < campaigns.AIRY_FIRST_ZERO) == off_lobe


# The (B, t) lattice of ROADMAP item 5.  Every accepted cell must give a
# right verdict, except these known wrong ones: true claims that fail
# continuity and Euler, each just before the reach refusal.
AIRY_LATTICE_STRENGTHS = (0.5, 1.0, 2.0, 5.0, 7.0, 10.0, 20.0, 30.0, 50.0, 100.0)
AIRY_LATTICE_TIMES = (-1.0, 0.0, 1e-4, 1e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0)
AIRY_KNOWN_WRONG = {(10.0, 0.03), (20.0, 0.01), (30.0, 1e-3), (50.0, 1e-4), (50.0, 1e-3), (100.0, 1e-4)}
AIRY_INTERIOR_SAMPLE = 8


def _airy_verdict(strength, t):
    """'refused' (exit 2), or the kinds of the failing cases (empty when all pass)."""
    try:
        report, _ = run_airy(strength, (t,))
    except AiryRangeError:
        return "refused"
    return {case.case_id.split(" ")[0] for case in report.cases if not case.passed}


@pytest.mark.filterwarnings("error")
def test_airy_lattice_edges_known_wrong_cells_and_interior_sample():
    """Each B at its last lattice time the reach check accepts, the known wrong cells and a seeded interior sample.

    A new wrong cell fails this test, and so does a listed cell that starts to pass.
    """
    verdicts = {}
    interior = []
    for strength in AIRY_LATTICE_STRENGTHS:
        # Walk back from the largest time; a refusal costs no evaluation.
        for index in reversed(range(len(AIRY_LATTICE_TIMES))):
            cell = (strength, AIRY_LATTICE_TIMES[index])
            verdicts[cell] = _airy_verdict(*cell)
            if verdicts[cell] != "refused":
                break
        interior += [(strength, t) for t in AIRY_LATTICE_TIMES[:index] if (strength, t) not in AIRY_KNOWN_WRONG]
    for cell in sorted(AIRY_KNOWN_WRONG | set(random.Random(5).sample(interior, AIRY_INTERIOR_SAMPLE))):
        if cell not in verdicts:
            verdicts[cell] = _airy_verdict(*cell)
    wrong = {cell for cell, verdict in verdicts.items() if verdict not in ("refused", set())}
    assert wrong == AIRY_KNOWN_WRONG, verdicts
    assert all(verdicts[cell] == {"continuity", "euler"} for cell in AIRY_KNOWN_WRONG)


class TestProfileCurve:
    def test_hydrogen_distribution_curve(self):
        curve = profile_curve((3, 2, 0), "P")
        grid = default_hydrogen_grid(3, AU)
        expected = radial_distribution(state(3, 2), grid)
        np.testing.assert_allclose(curve.values, expected, rtol=1e-13)
        assert curve.x_label.startswith("r")
        assert not curve.masked.any()

    def test_hydrogen_quantum_potential_curve_is_flat(self):
        curve = profile_curve((2, 1, 0), "V_q")
        keep = ~curve.masked
        np.testing.assert_allclose(curve.values[keep], -0.125, rtol=1e-9)

    def test_hydrogen_residual_curve_is_small(self):
        curve = profile_curve((4, 2, 1), "residual")
        keep = ~curve.masked
        assert keep.any()
        assert np.max(curve.values[keep]) < 1e-9

    def test_airy_external_potential_is_free(self):
        curve = profile_curve("airy", "V")
        np.testing.assert_array_equal(curve.values[~curve.masked], 0.0)

    def test_airy_current_tracks_density(self):
        curve = profile_curve("airy", "j", strength=1.0, time=0.8)
        density_curve = profile_curve("airy", "P", strength=1.0, time=0.8)
        keep = ~(curve.masked | density_curve.masked)
        np.testing.assert_allclose(
            curve.values[keep], density_curve.values[keep] * 0.5 * 0.8, rtol=1e-12
        )

    @pytest.mark.parametrize("quantity", ["P", "j", "residual", "V", "V_bohm", "V_q"])
    def test_airy_range_is_checked_only_where_ai_is_read(self, quantity, monkeypatch):
        counts = _count_calls(monkeypatch, "airy_ai", modules=(campaigns, airy))
        if quantity in ("P", "j", "residual"):
            with pytest.raises(AiryRangeError) as excinfo:
                profile_curve("airy", quantity, strength=1.0, time=10.0)
            assert excinfo.value.time == 10.0
            assert counts == {"airy_ai": 0}
        else:
            assert profile_curve("airy", quantity, strength=1.0, time=10.0).values.size == 8000

    def test_unknown_selection_and_quantity(self):
        with pytest.raises(ValueError):
            profile_curve("helium", "P")
        with pytest.raises(ValueError):
            profile_curve((1, 0, 0), "momentum")
