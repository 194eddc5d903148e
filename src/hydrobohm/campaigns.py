"""Verification campaigns: batch checks the CLI and the test suite share.

Each campaign returns a VerificationReport (and, where useful, table rows).
Default tolerances are the acceptance values; default grids are sized so a
full run stays at desk scale.  Campaign internals choose method-specific
grids and amplitude floors where the generic defaults would be dominated by
stencil noise; those choices are documented on the functions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .airy import (
    AiryPacketParams,
    airy_argument,
    airy_bohm_closed_form,
    airy_phase_time_derivative,
    airy_polar,
    airy_psi,
    airy_quantum_acceleration,
)
from .core import PhysicalConstants, atomic_units, make_axis_grid, make_radial_grid
from .hydrogen import (
    energy_level,
    psi,
    radial_distribution,
    radial_peaks,
    radial_R,
    state,
)
from .madelung import (
    bohm_potential_analytic,
    bohm_potential_fd,
    continuity_residual,
    coulomb_profile,
    euler_residual,
    hj_residual,
    hj_residual_field,
    quantum_acceleration,
    quantum_potential,
)
from .reports import VerificationReport, make_case
from .specfun import airy_ai

__all__ = [
    "ProfileCurve",
    "default_hydrogen_grid",
    "default_airy_grid",
    "run_levels",
    "run_flatness",
    "run_bohr_radii",
    "run_airy",
    "profile_curve",
    "FLATNESS_ANALYTIC_TOL",
    "FLATNESS_FD_TOL",
    "BOHR_RADII_TOL",
    "AIRY_TOL",
    "LEVELS_TOL",
]

LEVELS_TOL = 1e-12
FLATNESS_ANALYTIC_TOL = 1e-8
FLATNESS_FD_TOL = 1e-4
BOHR_RADII_TOL = 1e-8
AIRY_TOL = 1e-5

FD_FLATNESS_STEP = 1e-3
FD_FLATNESS_FLOOR = 0.05
AIRY_RESIDUAL_STEP = 2.5e-4
AIRY_RESIDUAL_FLOOR = 0.05
AIRY_RESIDUAL_WINDOW = (-6.0, 2.0)


def default_hydrogen_grid(n_max: int, constants: PhysicalConstants):
    """Logarithmic radial grid r in [0.05 a, 60 n_max a], 4000 points."""
    a = float(constants.bohr_radius)
    return make_radial_grid(0.05 * a, 60.0 * n_max * a, 4000, law="logarithmic")


def default_airy_grid(params: AiryPacketParams):
    """Uniform grid x in [-15, 10] / beta, 8000 points."""
    beta = params.beta
    return make_axis_grid(-15.0 / beta, 10.0 / beta, 8000)


def run_levels(n_max: int, constants: PhysicalConstants | None = None, tolerance: float | None = None):
    """Energy table E_n with the 1/n^2 ratio check against E_1.

    Returns (report, rows); rows carry (n, E_n, E_n/E_1, 1/n^2) as floats.
    tolerance defaults to LEVELS_TOL.
    """
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = constants or atomic_units()
    if tolerance is None:
        tolerance = LEVELS_TOL
    report = VerificationReport(command="levels", tolerance=tolerance)
    e1 = float(energy_level(1, constants))
    rows = []
    for n in range(1, n_max + 1):
        en = float(energy_level(n, constants))
        ratio = en / e1
        expected = 1.0 / (n * n)
        rows.append((n, en, ratio, expected))
        report.add(make_case(f"n={n:02d}", ratio, expected, tolerance, metric="rel"))
    return report, rows


def _flatness_states(n_max: int, policy: str):
    for n in range(1, n_max + 1):
        l_values = range(n) if policy == "all-lm" else [n - 1]
        for l in l_values:
            for m in range(-l, l + 1):
                yield n, l, m


def _flatness_deviation_analytic(n: int, l: int, constants: PhysicalConstants, grid) -> float:
    spec = state(n, l, 0, constants)
    v_q = quantum_potential(
        coulomb_profile(constants, grid), bohm_potential_analytic(spec, grid)
    )
    e_n = float(energy_level(n, constants))
    good = ~v_q.node_mask
    return float(np.abs(v_q.values[good] - e_n).max() / abs(e_n))


def _flatness_deviation_fd(n: int, l: int, constants: PhysicalConstants) -> float:
    """Deviation on a uniform grid at h = 10^-3 a with an 0.05 amplitude floor.

    The wider floor is what the second difference needs: truncation near a
    node scales like h^2/|R|, so points the analytic path keeps at the
    10^-12 floor would drown the comparison in stencil error, not physics.
    The grid starts at one bohr radius: below that the centrifugal r^l
    growth makes h^2 R'''/(3r) stencil error (through the 2R'/r term)
    the dominant contribution for high-n, low-l states.
    """
    a = float(constants.bohr_radius)
    r_hi = max(30.0, 4.0 * n * n) * a
    h = FD_FLATNESS_STEP * a
    count = int(round((r_hi - a) / h)) + 1
    grid = make_radial_grid(a, r_hi, count, law="uniform")
    spec = state(n, l, 0, constants)
    values = radial_R(spec, grid.points)
    bohm = bohm_potential_fd(
        values,
        grid,
        constants,
        geometry="radial",
        angular_l=l,
        amplitude_floor=FD_FLATNESS_FLOOR,
    )
    v_q = quantum_potential(coulomb_profile(constants, grid), bohm)
    e_n = float(energy_level(n, constants))
    good = ~v_q.node_mask
    return float(np.abs(v_q.values[good] - e_n).max() / abs(e_n))


def run_flatness(
    n_max: int,
    constants: PhysicalConstants | None = None,
    policy: str = "all-lm",
    method: str = "analytic",
    tolerance: float | None = None,
) -> VerificationReport:
    """Check max |V_Q - E_n| / |E_n| per eigenstate.

    The full-wavefunction Bohm potential is independent of m, so the
    deviation is computed once per (n, l) and reported for every m the
    policy selects.
    """
    if policy not in ("all-lm", "circular"):
        raise ValueError(f"unknown policy {policy!r}")
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown method {method!r}")
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = constants or atomic_units()
    if tolerance is None:
        tolerance = FLATNESS_ANALYTIC_TOL if method == "analytic" else FLATNESS_FD_TOL
    report = VerificationReport(command="flatness", tolerance=tolerance)
    grid = default_hydrogen_grid(n_max, constants) if method == "analytic" else None
    cache: dict[tuple[int, int], float] = {}
    for n, l, m in _flatness_states(n_max, policy):
        if (n, l) not in cache:
            if method == "analytic":
                cache[(n, l)] = _flatness_deviation_analytic(n, l, constants, grid)
            else:
                cache[(n, l)] = _flatness_deviation_fd(n, l, constants)
        deviation = cache[(n, l)]
        report.add(
            make_case(f"n={n:02d} l={l:02d} m={m:+03d}", deviation, 0.0, tolerance, metric="abs")
        )
    return report


def run_bohr_radii(
    n_max: int,
    constants: PhysicalConstants | None = None,
    tolerance: float | None = None,
):
    """Peak of P_{n,n-1} against the Bohr orbit radius n^2 a.

    Returns (report, rows); rows carry (n, r_peak, n^2 a, rel_error, passed).
    tolerance defaults to BOHR_RADII_TOL.
    """
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = constants or atomic_units()
    if tolerance is None:
        tolerance = BOHR_RADII_TOL
    a = float(constants.bohr_radius)
    report = VerificationReport(command="bohr-radii", tolerance=tolerance)
    rows = []
    for n in range(1, n_max + 1):
        spec = state(n, n - 1, 0, constants)
        peaks = radial_peaks(spec)
        r_peak = peaks[-1]
        expected = n * n * a
        case = make_case(f"n={n:02d}", r_peak, expected, tolerance, metric="rel")
        report.add(case)
        rows.append((n, r_peak, expected, case.rel_error, case.passed))
    return report, rows


def _airy_residual_grid(params: AiryPacketParams, t: float):
    """Uniform grid covering u in [-6, 2] at a profile-scaled step.

    The step 2.5e-4 in u balances the O(h^2) second-difference truncation
    against the absolute noise floor of the amplitude evaluation; together
    with the 0.05 amplitude floor it keeps every finite-difference check an
    order of magnitude under the 1e-5 tolerance.
    """
    beta = params.beta
    drift = params.drift_rate * t * t
    h = AIRY_RESIDUAL_STEP / beta
    lo = AIRY_RESIDUAL_WINDOW[0] / beta + drift
    hi = AIRY_RESIDUAL_WINDOW[1] / beta + drift
    count = int(round((hi - lo) / h)) + 1
    return make_axis_grid(lo, hi, count)


def _airy_peak(params: AiryPacketParams, grid, t: float) -> float:
    """Grid position of the density maximum at time t."""
    density = np.abs(airy_psi(params, grid.points, t)) ** 2
    return float(grid.points[int(np.argmax(density))])


def run_airy(
    strength: float,
    times,
    constants: PhysicalConstants | None = None,
    tolerance: float | None = None,
):
    """Quantum-acceleration, residual and trajectory checks for the packet.

    Per time t the report carries: the mean finite-difference quantum
    acceleration against B^3/2m^2 (relative), the Hamilton-Jacobi,
    continuity and Euler residuals (absolute), and the density-peak
    displacement against B^3 t^2 / 4m^2 (absolute, tolerance two grid
    steps of the default trajectory grid).  The continuity time step
    shrinks with the node drift rate so its O(dt^2) truncation stays
    below tolerance at large B t.  Each (grid, time) state is decomposed,
    and each time's density peak located, only once per run.

    Returns (report, rows); rows carry (t, displacement, expected).
    tolerance defaults to AIRY_TOL.
    """
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("times must contain at least one instant")
    constants = constants or atomic_units()
    if tolerance is None:
        tolerance = AIRY_TOL
    params = AiryPacketParams(strength, constants)
    report = VerificationReport(command="airy", tolerance=tolerance)
    trajectory_grid = default_airy_grid(params)
    trajectory_tol = 2.0 * trajectory_grid.spacing
    a_exact = airy_quantum_acceleration(params)
    peak = functools.cache(functools.partial(_airy_peak, params, trajectory_grid))
    rows = []
    for t in times:
        grid = _airy_residual_grid(params, t)
        x = grid.points
        polar_at = functools.cache(
            functools.partial(airy_polar, params, grid, amplitude_floor=AIRY_RESIDUAL_FLOOR)
        )

        envelope = airy_ai(airy_argument(params, x, t))
        bohm_fd = bohm_potential_fd(
            envelope, grid, constants, amplitude_floor=AIRY_RESIDUAL_FLOOR
        )
        accel = quantum_acceleration(bohm_fd, constants)
        mean_accel = float(np.nanmean(accel))
        report.add(
            make_case(f"acceleration t={t:g}", mean_accel, a_exact, tolerance, metric="rel")
        )

        hj = hj_residual(polar_at(t), 0.0, airy_phase_time_derivative(params, x, t), constants)
        report.add(make_case(f"hj t={t:g}", hj, 0.0, tolerance, metric="abs"))

        drift_speed = 2.0 * params.beta * params.drift_rate * abs(t)
        dt = min(1e-3, AIRY_RESIDUAL_STEP / drift_speed) if drift_speed > 0 else 1e-3
        cont = continuity_residual(polar_at(t - 0.5 * dt), polar_at(t + 0.5 * dt), dt, constants)
        report.add(make_case(f"continuity t={t:g}", cont, 0.0, tolerance, metric="abs"))

        dt_euler = 1e-3
        closed_form = airy_bohm_closed_form(params, grid, t)
        euler_pair = polar_at(t - 0.5 * dt_euler), polar_at(t + 0.5 * dt_euler)
        euler = euler_residual(*euler_pair, dt_euler, closed_form, constants)
        report.add(make_case(f"euler t={t:g}", euler, 0.0, tolerance, metric="abs"))

        displacement = peak(t) - peak(0.0)
        expected = params.drift_rate * t * t
        report.add(
            make_case(f"trajectory t={t:g}", displacement, expected, trajectory_tol, metric="abs")
        )
        rows.append((float(t), displacement, expected))
    return report, rows


@dataclass(frozen=True)
class ProfileCurve:
    """A curve ready for export: samples, mask, and axis labels."""

    coords: np.ndarray
    values: np.ndarray
    masked: np.ndarray
    title: str
    x_label: str
    y_label: str


_HYDROGEN_QUANTITIES = ("P", "V", "V_bohm", "V_q", "j", "residual")


def profile_curve(
    selection,
    quantity: str,
    constants: PhysicalConstants | None = None,
    strength: float = 1.0,
    time: float = 0.0,
) -> ProfileCurve:
    """Curve of a named quantity for a hydrogen state or the Airy packet.

    selection is (n, l, m) for hydrogen or the string "airy".  Quantities:
    P (radial distribution or relative density), V (external potential),
    V_bohm, V_q, j (probability-current magnitude along the natural
    direction: azimuthal at the equator for hydrogen, longitudinal for the
    packet), residual (flatness deviation for hydrogen, Hamilton-Jacobi
    residual for the packet).
    """
    if quantity not in _HYDROGEN_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    constants = constants or atomic_units()
    if selection == "airy":
        return _airy_curve(quantity, constants, strength, time)
    n, l, m = selection
    return _hydrogen_curve(n, l, m, quantity, constants)


def _hydrogen_curve(n: int, l: int, m: int, quantity: str, constants: PhysicalConstants) -> ProfileCurve:
    spec = state(n, l, m, constants)
    grid = default_hydrogen_grid(n, constants)
    r = grid.points
    none = np.zeros(r.shape, bool)
    label = f"hydrogen (n={n}, l={l}, m={m})"
    if quantity == "P":
        return ProfileCurve(r, radial_distribution(spec, grid).values, none, f"{label}: radial distribution", "r [bohr]", "P [1/bohr]")
    if quantity == "V":
        profile = coulomb_profile(constants, grid)
        return ProfileCurve(r, profile.values, profile.node_mask, f"{label}: external potential", "r [bohr]", "V [hartree]")
    if quantity == "V_bohm":
        profile = bohm_potential_analytic(spec, grid)
        return ProfileCurve(r, profile.values, profile.node_mask, f"{label}: Bohm potential", "r [bohr]", "V_bohm [hartree]")
    if quantity == "V_q":
        v_q = quantum_potential(coulomb_profile(constants, grid), bohm_potential_analytic(spec, grid))
        return ProfileCurve(r, v_q.values, v_q.node_mask, f"{label}: quantum potential", "r [bohr]", "V_q [hartree]")
    if quantity == "j":
        hbar, mass = float(constants.hbar), float(constants.mass)
        density = np.abs(psi(spec, r, np.full(r.shape, math.pi / 2), np.zeros(r.shape))) ** 2
        values = hbar * m * density / (mass * r)
        return ProfileCurve(r, values, none, f"{label}: azimuthal current at the equator", "r [bohr]", "j [au]")
    v_q = quantum_potential(coulomb_profile(constants, grid), bohm_potential_analytic(spec, grid))
    e_n = float(energy_level(n, constants))
    deviation = np.abs(v_q.values - e_n) / abs(e_n)
    return ProfileCurve(r, deviation, v_q.node_mask, f"{label}: flatness deviation", "r [bohr]", "|V_q - E_n| / |E_n|")


def _airy_curve(quantity: str, constants: PhysicalConstants, strength: float, time: float) -> ProfileCurve:
    params = AiryPacketParams(strength, constants)
    grid = default_airy_grid(params)
    x = grid.points
    none = np.zeros(x.shape, bool)
    label = f"airy packet (B={strength:g}, t={time:g})"
    if quantity == "P":
        values = np.abs(airy_psi(params, x, time)) ** 2
        return ProfileCurve(x, values, none, f"{label}: relative density", "x [bohr]", "|Psi|^2 [relative]")
    if quantity == "V":
        return ProfileCurve(x, np.zeros(x.shape), none, f"{label}: external potential", "x [bohr]", "V [hartree]")
    if quantity in ("V_bohm", "V_q"):
        profile = airy_bohm_closed_form(params, grid, time)
        name = "Bohm potential" if quantity == "V_bohm" else "quantum potential"
        return ProfileCurve(x, profile.values, profile.node_mask, f"{label}: {name}", "x [bohr]", f"{quantity} [hartree]")
    if quantity == "j":
        hbar, mass = float(constants.hbar), float(constants.mass)
        density = np.abs(airy_psi(params, x, time)) ** 2
        velocity = strength**3 * time / (2.0 * mass * mass)
        return ProfileCurve(x, density * velocity, none, f"{label}: probability current", "x [bohr]", "j [au]")
    polar = airy_polar(params, grid, time, amplitude_floor=AIRY_RESIDUAL_FLOOR)
    residual, usable = hj_residual_field(
        polar, 0.0, airy_phase_time_derivative(params, x, time), constants
    )
    return ProfileCurve(x, np.abs(residual), ~usable, f"{label}: Hamilton-Jacobi residual", "x [bohr]", "|residual| [hartree]")
