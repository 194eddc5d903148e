"""Acceptance suite: one test (and one pass/fail line) per claim.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
verdict lines; each test also prints a one-line summary with the measured
worst-case numbers when it passes.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import hydrobohm.campaigns as campaigns
from hydrobohm import (
    PhysicalConstants,
    airy_ai,
    atomic_units,
    bohm_potential_analytic,
    coulomb_profile,
    energy_level,
    make_axis_grid,
    make_radial_grid,
    overlap,
    probability_current,
    psi,
    quantum_acceleration,
    quantum_potential,
    radial_R,
    radial_R_derivatives,
    radial_peaks,
    schrodinger_residual,
    state,
)
from hydrobohm.campaigns import (
    default_hydrogen_grid,
    run_airy,
    run_flatness,
)
from hydrobohm.cli import main

import oracles

AU = atomic_units()


def announce(number: int, detail: str) -> None:
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_01_quantum_potential_is_flat():
    # Analytic evaluation: every (n, l, m) with n <= 10 keeps
    # max |V_Q - E_n| / |E_n| below 1e-8 on the default grid.
    analytic = run_flatness(10, method="analytic")
    assert analytic.case_count == 385
    assert analytic.all_passed
    assert analytic.max_abs_error < 1e-8
    # Five-point differences at h = 1e-2 a stay below 1e-4 for n <= 5.
    fd = run_flatness(5, method="fd")
    assert fd.all_passed
    assert fd.max_abs_error < 1e-4
    announce(
        1,
        f"analytic worst {analytic.max_abs_error:.3e} over 385 states, "
        f"fd worst {fd.max_abs_error:.3e} over 55 states",
    )


def test_criterion_02_quantum_force_vanishes():
    grid = default_hydrogen_grid(10, AU)
    coulomb = coulomb_profile(AU, grid)
    worst = 0.0
    for n in range(1, 11):
        for l in range(n):
            v_q = quantum_potential(coulomb, bohm_potential_analytic(state(n, l), grid))
            accel = quantum_acceleration(v_q, AU)
            worst = max(worst, float(np.nanmax(np.abs(accel))))
    assert worst < 1e-8
    announce(2, f"max |a_Q| = {worst:.3e} au over n <= 10")


def test_criterion_03_circular_peaks_at_bohr_radii():
    worst = 0.0
    for n in range(1, 11):
        peaks = radial_peaks(state(n, n - 1))
        assert peaks.size == 1
        worst = max(worst, abs(peaks[0] - n * n) / (n * n))
        # Independent check: a dense scan of P = r^2 R^2 puts its argmax
        # within one sample of the root-finder result.
        r = np.linspace(0.25 * n * n, 2.25 * n * n, 200001)
        scanned = oracles.local_maxima(r, r**2 * np.asarray(radial_R(state(n, n - 1), r)) ** 2)
        assert len(scanned) == 1
        assert abs(scanned[0] - peaks[0]) < 2.0 * (r[1] - r[0])
    assert worst < 1e-8
    announce(3, f"worst |r_peak - n^2 a| / n^2 a = {worst:.3e} for n <= 10")


def test_criterion_04_energy_ladder():
    assert energy_level(1, AU) == -0.5
    exact = PhysicalConstants(hbar=Fraction(1), mass=Fraction(1), coulomb=Fraction(1))
    worst = 0.0
    for n in range(1, 21):
        assert energy_level(n, exact) / energy_level(1, exact) == Fraction(1, n * n)
        worst = max(worst, abs(energy_level(n, AU) / energy_level(1, AU) - 1.0 / n**2))
    assert worst < 1e-12
    announce(4, f"E_n/E_1 = 1/n^2 exact for n <= 20; float drift {worst:.3e}")


def test_criterion_05_eigenstates_solve_schrodinger():
    grid = make_radial_grid(0.05, 240.0, 4000, law="logarithmic")
    worst = 0.0
    for n in range(1, 11):
        for l in range(n):
            worst = max(worst, schrodinger_residual(state(n, l), grid))
    assert worst < 1e-9
    announce(5, f"max radial-equation residual {worst:.3e} over n <= 10")


def test_criterion_06_orthonormality():
    states = [
        state(n, l, m) for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)
    ]
    assert len(states) == 30
    worst = 0.0
    for i, left in enumerate(states):
        for right in states[i:]:
            value = overlap(left, right)
            expected = 1.0 if left is right else 0.0
            worst = max(worst, abs(value - expected))
    assert worst < 1e-12
    announce(6, f"max |<a|b> - delta_ab| = {worst:.3e} over all 30 states with n <= 4")


def test_criterion_07_airy_packet_accelerates():
    times = (0.0, 0.3, 1.0)
    worst_residual = 0.0
    worst_accel = 0.0
    for strength in (0.5, 1.0, 2.0):
        report, _ = run_airy(strength, times)
        assert report.all_passed
        for case in report.sorted_cases():
            kind = case.case_id.split(" ")[0]
            if kind == "acceleration":
                worst_accel = max(worst_accel, case.rel_error)
            elif kind in ("hj", "continuity", "euler"):
                worst_residual = max(worst_residual, case.abs_error)
    assert worst_accel < 1e-5
    assert worst_residual < 1e-5
    announce(
        7,
        f"acceleration rel error {worst_accel:.3e}, residuals {worst_residual:.3e}, "
        "trajectory within grid resolution for B in {0.5, 1, 2}",
    )


def test_criterion_08_stationary_currents():
    worst_zero = 0.0
    worst_div = 0.0
    for n in range(1, 5):
        for l in range(n):
            for m in range(-l, l + 1):
                spec = state(n, l, m)
                r0 = 1.5 * n * n
                rgrid = make_radial_grid(0.2, 40.0, 800)
                radial = probability_current(
                    np.asarray(psi(spec, rgrid.points, 1.0, 0.4), dtype=complex), rgrid, AU
                )
                worst_zero = max(worst_zero, np.nanmax(np.abs(radial[np.isfinite(radial)])))
                theta = np.linspace(0.2, math.pi - 0.2, 601)
                arc = make_axis_grid(r0 * theta[0], r0 * theta[-1], theta.size)
                polar = probability_current(
                    np.asarray(psi(spec, r0, theta, 0.4), dtype=complex), arc, AU
                )
                worst_zero = max(worst_zero, np.nanmax(np.abs(polar[np.isfinite(polar)])))
                phi = np.linspace(0.0, 2.0 * math.pi, 721)
                ring = make_axis_grid(0.0, r0 * math.sin(1.0) * 2.0 * math.pi, phi.size)
                azimuthal = probability_current(
                    np.asarray(psi(spec, r0, 1.0, phi), dtype=complex), ring, AU
                )
                keep = np.isfinite(azimuthal)
                if m == 0:
                    worst_zero = max(worst_zero, np.max(np.abs(azimuthal[keep])))
                else:
                    divergence = np.diff(azimuthal[keep]) / (ring.points[1] - ring.points[0])
                    worst_div = max(worst_div, np.max(np.abs(divergence)))
    assert worst_zero < 1e-10
    assert worst_div < 1e-8
    announce(
        8,
        f"max non-azimuthal / m=0 current {worst_zero:.3e}, "
        f"max ring divergence {worst_div:.3e} over n <= 4",
    )


def _hydrogen_convergence_order(n, l, lo, hi, floor=1e-6):
    spec = state(n, l)
    scale = abs(float(energy_level(n, AU)))
    steps = (1e-2, 1e-3, 1e-4)
    errors = []
    for h in steps:
        r = np.arange(lo, hi + 0.5 * h, h, dtype=np.longdouble)
        value, d1, d2 = radial_R_derivatives(spec, r)
        value = np.asarray(value, dtype=np.longdouble)
        exact = (d2 + 2.0 * d1 / r) / value
        fd2 = (value[2:] - 2.0 * value[1:-1] + value[:-2]) / np.longdouble(h * h)
        fd1 = (value[2:] - value[:-2]) / np.longdouble(2.0 * h)
        approx = (fd2 + 2.0 * fd1 / r[1:-1]) / value[1:-1]
        clear = np.abs(value[1:-1]) > floor * np.abs(value).max()
        deviation = np.abs(approx - exact[1:-1])[clear]
        errors.append(float(deviation.max()) * 0.5 / scale)
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0]), errors


def _airy_convergence_order():
    steps = (1e-2, 1e-3, 1e-4)
    errors = []
    for h in steps:
        x = np.arange(-1.6, 1.6 + 0.5 * h, h, dtype=np.longdouble)
        value = airy_ai(x)
        exact = x * value
        fd2 = (value[2:] - 2.0 * value[1:-1] + value[:-2]) / np.longdouble(h * h)
        errors.append(float(np.max(np.abs(fd2 - exact[1:-1])) / np.max(np.abs(value))))
    return float(np.polyfit(np.log(steps), np.log(errors), 1)[0]), errors


def test_criterion_09_stencils_converge_at_second_order():
    # Extended-precision sampling keeps the h = 1e-4 point above the
    # roundoff floor so the measured slope reflects pure truncation.
    orders = {}
    orders["hydrogen (1,0,0)"], _ = _hydrogen_convergence_order(1, 0, 0.5, 8.0)
    orders["hydrogen (3,2,0)"], _ = _hydrogen_convergence_order(3, 2, 1.0, 8.0)
    orders["airy packet"], _ = _airy_convergence_order()
    for label, order in orders.items():
        assert order >= 1.9, f"{label}: measured order {order:.3f}"
    announce(
        9,
        "orders "
        + ", ".join(f"{label} {order:.3f}" for label, order in orders.items()),
    )


def test_criterion_10_cli_flatness_gate(capsys, monkeypatch):
    assert main(["flatness", "--n-max", "5", "--method", "analytic"]) == 0
    out = capsys.readouterr().out
    assert "cases: 55  passes: 55" in out
    # Corrupting the energy reference by one part in 10^3 must flip the
    # exit code: the command fails honestly rather than parroting success.
    true_energy = campaigns.energy_level
    monkeypatch.setattr(
        campaigns,
        "energy_level",
        lambda n, constants: true_energy(n, constants) * (1.0 + 1e-3),
    )
    assert main(["flatness", "--n-max", "5", "--method", "analytic"]) == 1
    corrupted = capsys.readouterr().out
    assert "FAIL" in corrupted
    announce(10, "exit 0 with 55/55 passes; corrupted energies exit 1")
