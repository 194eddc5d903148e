"""Verification campaigns: batch checks the CLI and the test suite share.

Each campaign returns a VerificationReport (and, where useful, table rows).
Default tolerances are the acceptance values; default grids are sized so a
full run stays at desk scale.  Campaign internals choose method-specific
grids and amplitude floors where the generic defaults would be dominated by
stencil noise; those choices are documented on the functions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .airy import (
    AiryPacketParams,
    _packet_field,
    _packet_polar,
    airy_argument,
    airy_bohm_closed_form,
    airy_phase_time_derivative,
    airy_polar,
    airy_psi,
    airy_quantum_acceleration,
)
from .core import (
    PhysicalConstants,
    _above_floor,
    _interior,
    _uniform_spacing,
    _worst,
    atomic_units,
    make_axis_grid,
    make_radial_grid,
)
from .hydrogen import (
    _radial_from_laguerre,
    energy_level,
    psi,
    radial_distribution,
    radial_peaks,
    state,
)
from .madelung import (
    _bohm_shell,
    _radial_fd_bohm,
    bohm_potential_analytic,
    bohm_potential_fd,
    continuity_residual,
    coulomb_profile,
    decompose,
    euler_residual,
    hj_residual,
    hj_residual_field,
    quantum_acceleration,
    quantum_potential,
)
from .reports import CaseRecord, VerificationReport, make_case
from .specfun import _AIRY_SUPPORTED, _laguerre_pair, airy_ai

__all__ = [
    "AiryRangeError",
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

FD_FLATNESS_STEP = 1e-2
FD_FLATNESS_FLOOR = 0.05
# Points per block of the Laguerre recurrence that assembles R_nl in the fd
# flatness shell (_fd_shell).  On shell 30 (359,901 points) blocks run the
# shell in about 600 ms against about 920 ms on the whole grid; the grids of
# n <= 9 fit in one block.  Chosen by measurement, see CHANGES.md.
FD_BLOCK_POINTS = 32768
AIRY_RESIDUAL_STEP = 2.5e-4
AIRY_EULER_STEP = 1e-3
AIRY_RESIDUAL_FLOOR = 0.05
AIRY_RESIDUAL_WINDOW = (-6.0, 2.0)
# Ai's first zero a_1, and the largest |Ai| off the first lobe [a_1, 0]: the
# second lobe's peak |Ai(a_2')| = 0.4190155 (a_2' = -3.24820), rounded up.
# Every later lobe is lower, and Ai(0) = 0.3550281 bounds u > 0.
AIRY_FIRST_ZERO = -2.338107410459767
AIRY_OFF_LOBE_PEAK = 0.41902


def default_hydrogen_grid(n_max: int, constants: PhysicalConstants):
    """Logarithmic radial grid r in [0.05 a, 60 n_max a], 4000 points."""
    a = float(constants.bohr_radius)
    return make_radial_grid(0.05 * a, 60.0 * n_max * a, 4000, law="logarithmic")


def default_airy_grid(params: AiryPacketParams):
    """Uniform grid x in [-15, 10] / beta, 8000 points."""
    beta = params.beta
    return make_axis_grid(-15.0 / beta, 10.0 / beta, 8000)


def run_levels(n_max: int, *, tolerance: float | None = None):
    """Energy table E_n with the 1/n^2 ratio check against E_1, in atomic units.

    Returns (report, rows); rows carry (n, E_n, E_n/E_1, 1/n^2) as floats.
    tolerance defaults to LEVELS_TOL.
    """
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = atomic_units()
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


def _flatness_deviation(external: np.ndarray, bohm: np.ndarray, usable: np.ndarray, e_n: float) -> float:
    """max |V + V_Bohm - E_n| / |E_n| over the usable points.

    bohm is overwritten: the sum is built in its buffer.  A deviation that
    is not finite raises a RuntimeWarning (the analytic shell divides with
    numpy's warnings off).
    """
    bohm += external
    bohm -= e_n
    deviation = _worst(bohm, usable) / abs(e_n)
    if not math.isfinite(deviation):
        warnings.warn("non-finite V + V_Bohm - E_n on a usable point", RuntimeWarning, stacklevel=2)
    return deviation


def _flatness_fd_grid(n: int, constants: PhysicalConstants):
    """The uniform grid of shell n for the fd flatness check."""
    a = float(constants.bohr_radius)
    r_hi = max(30.0, 4.0 * n * n) * a
    h = FD_FLATNESS_STEP * a
    count = int(round((r_hi - a) / h)) + 1
    return make_radial_grid(a, r_hi, count, law="uniform")


def _fd_shell(n: int, ls, constants: PhysicalConstants, e_n: float) -> list[float]:
    """max |V + V_Bohm - E_n| / |E_n| of (n, l), l in ls, by five-point stencils.

    The uniform grid of shell n (_flatness_fd_grid, h = 10^-2 a) is built
    and checked once, and so are rho, e^{-rho/2} and -coulomb/r.  Per l,
    R_nl is assembled in blocks of FD_BLOCK_POINTS, with the bits of one
    whole-grid assembly.  A point counts when |R| clears 0.05 of max |R|
    at all five points of its stencil: truncation near a node grows like
    h^4/|R|, so points nearer a node would drown the comparison in stencil
    error, not physics.  The grid starts at one bohr radius: below it the
    centrifugal r^l growth makes the 2R'/r stencil error dominate for
    high-n, low-l states.  madelung._radial_fd_bohm runs from the first
    point that counts to the last.

    On a grid of more than one block (n >= 10 at the default block size)
    the assembly stops early.  Past the outer turning point
    r+ = n^2 a (1 + sqrt(1 - l(l+1)/n^2)) the effective potential exceeds
    E_n, so u = rR is convex toward zero and |R| only falls.  Once a block
    that has another after it ends past r+ with |R| at its last point under
    half the floor times the running max |R| (the half is a margin for
    rounding), no later point can clear the floor or raise the max, and
    the rest of the grid is not assembled.  The check reads the |R| the
    floor reads, and the mask, hence every deviation, is the whole grid's.
    A shell of one block runs without the check.
    """
    r = _flatness_fd_grid(n, constants).points
    h = _uniform_spacing(r)
    a = float(constants.bohr_radius)
    rho = (2.0 / (n * a)) * r
    envelope = np.exp(-rho / 2)
    external = coulomb_profile(constants, r).values
    values = np.empty_like(r)
    magnitude = np.empty_like(r)
    deviations = []
    for l in ls:
        turning_point = n * n * a * (1.0 + math.sqrt(1.0 - l * (l + 1) / (n * n)))
        end, peak = r.size, 0.0
        for lo in range(0, r.size, FD_BLOCK_POINTS):
            part = slice(lo, lo + FD_BLOCK_POINTS)
            lag = _laguerre_pair(n - l - 1, 2 * l + 1, rho[part])[0]
            _radial_from_laguerre(n, l, a, rho[part], lag, envelope[part], out=values[part])
            np.abs(values[part], out=magnitude[part])
            if lo + FD_BLOCK_POINTS < r.size:
                last = lo + FD_BLOCK_POINTS - 1
                peak = max(peak, magnitude[part].max())
                if r[last] > turning_point and magnitude[last] < 0.5 * FD_FLATNESS_FLOOR * peak:
                    end = last + 1
                    break
        above = _above_floor(magnitude[:end], FD_FLATNESS_FLOOR)
        usable = _interior(_interior(above))
        kept = np.flatnonzero(usable)
        if not kept.size:
            raise ValueError("no usable interior points")
        lo, hi = int(kept[0]), int(kept[-1]) + 1
        bohm = _radial_fd_bohm(values, r, h, constants, l, lo, hi)
        deviations.append(_flatness_deviation(external[lo:hi], bohm, usable[lo:hi], e_n))
    return deviations


def run_flatness(
    n_max: int,
    *,
    policy: str = "all-lm",
    method: str = "analytic",
    tolerance: float | None = None,
) -> VerificationReport:
    """Check max |V_Q - E_n| / |E_n| per eigenstate, in atomic units.

    The work goes one shell n at a time.  The full-wavefunction Bohm
    potential is independent of m, so the deviation is computed once per
    (n, l): make_case builds the record of m = -l, and every other m the
    policy selects gets that record's numbers under its own case id.  On the
    analytic path the l of a shell are walked downward through
    madelung._bohm_shell, which shares rho, e^{-rho/2}, work buffers and one
    Laguerre chain between neighbouring l (L'' of (n, l) is the step before
    L of (n, l + 1)); the Coulomb term is built once per grid.  The shell
    yields V_Bohm and its mask in its own buffers, valid until the next l,
    and _flatness_deviation reduces them in place before the walk moves on.
    On the fd path the uniform grid, rho, e^{-rho/2} and the Coulomb term
    are built once per shell, and each l runs five-point stencils over the
    points the amplitude floor keeps; past the outer turning point the
    assembly of R_nl stops once |R| has fallen under the floor (_fd_shell).
    The m copies of an (n, l) share one case-id prefix.  Cases are reported
    in (n, l, m) order.
    """
    if policy not in ("all-lm", "circular"):
        raise ValueError(f"unknown policy {policy!r}")
    if method not in ("analytic", "fd"):
        raise ValueError(f"unknown method {method!r}")
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = atomic_units()
    if tolerance is None:
        tolerance = FLATNESS_ANALYTIC_TOL if method == "analytic" else FLATNESS_FD_TOL
    report = VerificationReport(command="flatness", tolerance=tolerance)
    if method == "analytic":
        r = default_hydrogen_grid(n_max, constants).points
        external = coulomb_profile(constants, r).values
    for n in range(1, n_max + 1):
        ls = range(n - 1, -1, -1) if policy == "all-lm" else (n - 1,)
        e_n = float(energy_level(n, constants))
        if method == "analytic":
            deviations = [
                _flatness_deviation(external, values, usable, e_n)
                for values, usable in _bohm_shell(n, ls, constants, r)
            ]
        else:
            deviations = _fd_shell(n, ls, constants, e_n)
        for l, deviation in sorted(zip(ls, deviations)):
            prefix = f"n={n:02d} l={l:02d} m="
            case = make_case(f"{prefix}{-l:+03d}", deviation, 0.0, tolerance, metric="abs")
            report.add(case)
            report.cases.extend(CaseRecord(f"{prefix}{m:+03d}", *case[1:]) for m in range(1 - l, l + 1))
    return report


def run_bohr_radii(n_max: int, *, tolerance: float | None = None):
    """Peak of P_{n,n-1} against the Bohr orbit radius n^2 a, in atomic units.

    Returns (report, rows); rows carry (n, r_peak, n^2 a, rel_error, passed).
    tolerance defaults to BOHR_RADII_TOL.
    """
    if n_max < 1:
        raise ValueError("n_max must satisfy n_max >= 1")
    constants = atomic_units()
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


class AiryRangeError(ValueError):
    """A packet check would read Ai past the |u| <= 20 that airy_ai supports.

    Raised before any evaluation.  strength and time name the first
    requested instant that reaches too far; reach is the largest |u| it
    would read.
    """

    limit = _AIRY_SUPPORTED

    def __init__(self, strength: float, time: float, reach: float):
        super().__init__(
            f"B={strength:g} at t={time:g} reads Ai at |u| up to {reach:.4g}, "
            f"past the |u| <= {self.limit:g} that airy_ai supports"
        )
        self.strength = strength
        self.time = time
        self.reach = reach


def _check_airy_reach(params: AiryPacketParams, spans) -> None:
    """Raise AiryRangeError unless every span keeps u within airy_ai's range.

    A span (t, time, x_lo, x_hi) stands for an evaluation of Ai(u(x, time))
    on a grid from x_lo to x_hi that serves the requested instant t.  u is
    monotone in x, also after rounding, so its two ends bound every grid
    point, and the check accepts exactly the inputs airy_ai accepts.
    """
    for t, time, x_lo, x_hi in spans:
        reach = float(np.abs(airy_argument(params, np.array([x_lo, x_hi]), time)).max())
        if not reach <= _AIRY_SUPPORTED:
            raise AiryRangeError(params.strength, t, reach)


def _airy_residual_window(params: AiryPacketParams, t: float) -> tuple[float, float, int]:
    """Ends and point count of the residual grid at t (see _airy_residual_grid)."""
    beta = params.beta
    drift = params.drift_rate * t * t
    h = AIRY_RESIDUAL_STEP / beta
    lo = AIRY_RESIDUAL_WINDOW[0] / beta + drift
    hi = AIRY_RESIDUAL_WINDOW[1] / beta + drift
    return lo, hi, int(round((hi - lo) / h)) + 1


def _airy_residual_grid(params: AiryPacketParams, t: float):
    """Uniform grid covering u in [-6, 2] at a profile-scaled step.

    The step 2.5e-4 in u balances the O(h^2) second-difference truncation
    against the absolute noise floor of the amplitude evaluation; together
    with the 0.05 amplitude floor it keeps every finite-difference check an
    order of magnitude under the 1e-5 tolerance.
    """
    return make_axis_grid(*_airy_residual_window(params, t))


def _continuity_step(params: AiryPacketParams, t: float) -> float:
    """Continuity time step: AIRY_EULER_STEP, shrunk as the nodes drift faster."""
    drift_speed = 2.0 * params.beta * params.drift_rate * abs(t)
    return min(AIRY_EULER_STEP, AIRY_RESIDUAL_STEP / drift_speed) if drift_speed > 0 else AIRY_EULER_STEP


def _brackets(params: AiryPacketParams, t: float) -> dict:
    """{dt: (t - dt/2, t + dt/2)} of the two-time residuals at t: continuity step, then Euler, one entry if equal."""
    return {dt: (t - 0.5 * dt, t + 0.5 * dt) for dt in (_continuity_step(params, t), AIRY_EULER_STEP)}


def _residual_spans(params: AiryPacketParams, t: float):
    """Spans of run_airy's Ai evaluations on the residual grid of t."""
    lo, hi, _ = _airy_residual_window(params, t)
    times = [t, *(time for pair in _brackets(params, t).values() for time in pair)]
    return [(t, time, lo, hi) for time in times]


def _bracketing_pair(params: AiryPacketParams, x, early: float, late: float):
    """Polar forms at the two instants of a bracket, without curvature.

    Neither continuity_residual nor euler_residual reads amplitude_d2, so
    the forms come from decompose alone.  airy_argument reads the time only
    through drift_rate * t * t, so when both times give the same drift (at
    t = 0) they share one Ai evaluation and only the phase differs.
    """
    envelope = airy_ai(airy_argument(params, x, early))
    early_field = _packet_field(params, x, early, envelope)
    if params.drift_rate * late * late != params.drift_rate * early * early:
        envelope = airy_ai(airy_argument(params, x, late))
    late_field = _packet_field(params, x, late, envelope)
    del envelope  # both fields exist; the envelope is not held through decompose
    constants = params.constants
    return (
        decompose(early_field, x, constants, amplitude_floor=AIRY_RESIDUAL_FLOOR),
        decompose(late_field, x, constants, amplitude_floor=AIRY_RESIDUAL_FLOOR),
    )


def _check_time_ids(times) -> None:
    """Raise ValueError when times repeat an instant or two instants print as one t= case id.

    0 and -0 are one instant.  run_airy labels its cases with t formatted
    by :g (six significant digits), so 0.1234567 and 0.1234568 would give
    rows that cannot be told apart.
    """
    seen = {}
    for i, t in enumerate(times):
        if t in times[:i]:
            raise ValueError(f"times repeat the instant {t:g}")
        label = f"{t:g}"
        if seen.get(label, t) != t:
            raise ValueError(f"instants {seen[label]!r} and {t!r} both give the case id t={label}")
        seen[label] = t


def _airy_peak(params: AiryPacketParams, grid, t: float) -> float:
    """Grid position of the density maximum at time t, read off Ai's first lobe.

    |Ai(u)| peaks at 0.53566 on its first lobe a_1 <= u <= 0 and stays
    below AIRY_OFF_LOBE_PEAK off it.  u is monotone in x, also after
    rounding, so the lobe is one index window (748 of the default grid's
    8,000 points), and only there is the packet evaluated.  airy_ai and
    airy_psi are pointwise (airy_ai's Maclaurin stop reads the widest point;
    the terms a wider array would still add are below 1e-25 against sums of
    at least 0.07), so the window holds the bits of a whole-grid
    evaluation, and once its maximum beats AIRY_OFF_LOBE_PEAK squared the
    argmax is the whole-grid one, bit for bit, whether or not the grid cuts
    the lobe.  Otherwise (an empty window, or a grid too coarse or short for
    the lobe's peak) the whole grid is searched.  Every default grid that
    _check_airy_reach accepts spans u in [-15 - s, 10 - s] with 0 <= s <= 5,
    so the fallback never runs in run_airy.
    """
    x = grid.points
    lo, hi = (int(i) for i in np.searchsorted(airy_argument(params, x, t), (AIRY_FIRST_ZERO, 0.0)))
    if lo < hi:
        density = np.abs(airy_psi(params, x[lo:hi], t)) ** 2
        peak = int(np.argmax(density))
        if density[peak] > AIRY_OFF_LOBE_PEAK**2:
            return float(x[lo + peak])
    density = np.abs(airy_psi(params, x, t)) ** 2
    return float(x[int(np.argmax(density))])


def run_airy(strength: float, times, *, tolerance: float | None = None):
    """Quantum-acceleration, residual and trajectory checks for the packet, in atomic units.

    Per time t the report carries: the mean finite-difference quantum
    acceleration against B^3/2m^2 (relative), the Hamilton-Jacobi,
    continuity and Euler residuals (absolute), and the density-peak
    displacement against B^3 t^2 / 4m^2 (absolute, tolerance two grid
    steps of the default trajectory grid).  The continuity time step
    shrinks with the node drift rate so its O(dt^2) truncation stays
    below tolerance at large B t; wherever it equals the Euler step, the
    Euler check reuses the continuity pair.  The density peak is located
    once per distinct time, t = 0 included, from the packet on Ai's first
    lobe alone (748 of the trajectory grid's 8,000 points), where the
    maximum must sit; it is the whole-grid peak, bit for bit (_airy_peak).
    One Ai evaluation per time on
    the residual grid serves both the finite-difference Bohm input and the
    polar form at t itself, which the Hamilton-Jacobi check reads; only
    that form carries the exact amplitude curvature.  The forms bracketing
    t come without it, and share one Ai evaluation when their times have
    the same t^2 (the pair around t = 0).

    Raises ValueError when times is empty, repeats an instant (0 and -0
    are one instant) or holds two instants whose case ids read alike
    (_check_time_ids), and AiryRangeError, before any evaluation, when some
    grid would read Ai past |u| = 20.

    Returns (report, rows); rows carry (t, displacement, expected).
    tolerance defaults to AIRY_TOL.
    """
    times = tuple(float(t) for t in times)
    if not times:
        raise ValueError("times must contain at least one instant")
    _check_time_ids(times)
    constants = atomic_units()
    if tolerance is None:
        tolerance = AIRY_TOL
    params = AiryPacketParams(strength, constants)
    trajectory_grid = default_airy_grid(params)
    _check_airy_reach(
        params,
        [(t, t, trajectory_grid.x_min, trajectory_grid.x_max) for t in (0.0, *times)]
        + [span for t in times for span in _residual_spans(params, t)],
    )
    report = VerificationReport(command="airy", tolerance=tolerance)
    trajectory_tol = 2.0 * trajectory_grid.spacing
    a_exact = airy_quantum_acceleration(params)
    peaks = {t: _airy_peak(params, trajectory_grid, t) for t in {0.0, *times}}
    rows = []
    for t in times:
        grid = _airy_residual_grid(params, t)
        x = grid.points
        envelope = airy_ai(airy_argument(params, x, t))
        bohm_fd = bohm_potential_fd(
            envelope, grid, constants, amplitude_floor=AIRY_RESIDUAL_FLOOR
        )
        accel = quantum_acceleration(bohm_fd, constants)
        mean_accel = float(np.nanmean(accel))
        report.add(
            make_case(f"acceleration t={t:g}", mean_accel, a_exact, tolerance, metric="rel")
        )

        centre = _packet_polar(
            params, x, t, _packet_field(params, x, t, envelope), AIRY_RESIDUAL_FLOOR
        )
        hj = hj_residual(centre, 0.0, airy_phase_time_derivative(params, x, t), constants)
        del centre, envelope  # not held while the bracketing forms are built
        report.add(make_case(f"hj t={t:g}", hj, 0.0, tolerance, metric="abs"))

        brackets = _brackets(params, t)
        dt = _continuity_step(params, t)
        pair = _bracketing_pair(params, x, *brackets[dt])
        cont = continuity_residual(*pair, dt, constants)
        report.add(make_case(f"continuity t={t:g}", cont, 0.0, tolerance, metric="abs"))

        if dt != AIRY_EULER_STEP:
            pair = _bracketing_pair(params, x, *brackets[AIRY_EULER_STEP])
        closed_form = airy_bohm_closed_form(params, grid, t)
        euler = euler_residual(*pair, AIRY_EULER_STEP, closed_form, constants)
        report.add(make_case(f"euler t={t:g}", euler, 0.0, tolerance, metric="abs"))

        displacement = peaks[t] - peaks[0.0]
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


_PROFILE_QUANTITIES = ("P", "V", "V_bohm", "V_q", "j", "residual")


def profile_curve(selection, quantity: str, *, strength: float = 1.0, time: float = 0.0) -> ProfileCurve:
    """Curve of a named quantity for a hydrogen state or the Airy packet, in atomic units.

    selection is (n, l, m) for hydrogen or the string "airy".  Quantities:
    P (radial distribution or relative density), V (external potential),
    V_bohm, V_q, j (probability-current magnitude along the natural
    direction: azimuthal at the equator for hydrogen, longitudinal for the
    packet), residual (flatness deviation for hydrogen, Hamilton-Jacobi
    residual for the packet).
    """
    if quantity not in _PROFILE_QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    constants = atomic_units()
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
        return ProfileCurve(r, radial_distribution(spec, grid), none, f"{label}: radial distribution", "r [bohr]", "P [1/bohr]")
    if quantity == "V":
        profile = coulomb_profile(constants, grid)
        return ProfileCurve(r, profile.values, profile.node_mask, f"{label}: external potential", "r [bohr]", "V [hartree]")
    if quantity == "V_bohm":
        profile = bohm_potential_analytic(spec, grid)
        return ProfileCurve(r, profile.values, profile.node_mask, f"{label}: Bohm potential", "r [bohr]", "V_bohm [hartree]")
    if quantity == "j":
        hbar, mass = float(constants.hbar), float(constants.mass)
        density = np.abs(psi(spec, r, np.full(r.shape, math.pi / 2), np.zeros(r.shape))) ** 2
        values = hbar * m * density / (mass * r)
        return ProfileCurve(r, values, none, f"{label}: azimuthal current at the equator", "r [bohr]", "j [au]")
    v_q = quantum_potential(coulomb_profile(constants, grid), bohm_potential_analytic(spec, grid))
    if quantity == "V_q":
        return ProfileCurve(r, v_q.values, v_q.node_mask, f"{label}: quantum potential", "r [bohr]", "V_q [hartree]")
    e_n = float(energy_level(n, constants))
    deviation = np.abs(v_q.values - e_n) / abs(e_n)
    return ProfileCurve(r, deviation, v_q.node_mask, f"{label}: flatness deviation", "r [bohr]", "|V_q - E_n| / |E_n|")


def _airy_curve(quantity: str, constants: PhysicalConstants, strength: float, time: float) -> ProfileCurve:
    params = AiryPacketParams(strength, constants)
    grid = default_airy_grid(params)
    x = grid.points
    none = np.zeros(x.shape, bool)
    label = f"airy packet (B={strength:g}, t={time:g})"
    if quantity in ("P", "j", "residual"):
        _check_airy_reach(params, [(time, time, grid.x_min, grid.x_max)])
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
