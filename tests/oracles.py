"""Independent oracle constructions used by the tests.

Everything here is built from first principles (exact rational series,
quadrature of defining integrals, dense-grid scans) so the package's
recurrence- and series-based evaluators are checked against genuinely
different arithmetic, not against themselves.  The exceptions are kept
copies of loops the package ran before a rewrite (svg_polylines,
profile_rows, airy_ai_reference, laguerre_reference): those check that the
rewrite kept every bit.  The peak finder scan_peaks (with slope_sign,
peak_scan and its midpoint trees) is also a kept copy: the general path
radial_peaks ran for every state before it took circular states only, and
the bit oracle of the circular path.  The fd flatness references
(fd_flatness_reference and its two stencils) are per-state, whole-grid
numpy expressions of the difference formulas, in the operation order the
package's kernels use, so the shell-wise fd check can be pinned to them
bit for bit.  distribution_slope is also not independent: it is the
normalized dP/dr, by the product rule on radial_R_derivatives, that
radial_peaks read before it switched to a sign helper.  The Madelung and
packet kernels from first_weights_reference to packet_field_reference are
kept copies too: the allocating bodies the package ran before its
residual kernels moved to in-place buffers and cached stencil weights.
bohm_shell_reference is the allocating body of madelung._bohm_shell before
the shell moved into reused buffers: the bit oracle of the buffered walk.
overlap_reference is the allocating body of hydrogen.overlap: it forms the
rules, their weights and both states' factors afresh on every call.
airy_peak_reference is the whole-grid density argmax that
campaigns._airy_peak ran before it read only Ai's first lobe.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import hydrobohm.hydrogen as hydrogen
from hydrobohm import (
    AiryPacketParams,
    airy_psi,
    atomic_units,
    energy_level,
    make_radial_grid,
    radial_R,
    radial_R_derivatives,
    specfun,
    state,
)
from hydrobohm.core import AMPLITUDE_FLOOR, PhysicalConstants, _above_floor, _interior, _worst, as_points
from hydrobohm.hydrogen import _radial_from_laguerre
from hydrobohm.madelung import PolarForm, PotentialProfile, _central_second, _runs
from hydrobohm.specfun import _laguerre_pair
from hydrobohm.reports import format_number


def laguerre_series(k: int, alpha: int, x: Fraction) -> Fraction:
    """Exact generalized Laguerre value from the explicit coefficient sum.

    L_k^alpha(x) = sum_i (-1)^i C(k + alpha, k - i) x^i / i!
    """
    total = Fraction(0)
    for i in range(k + 1):
        term = Fraction(math.comb(k + alpha, k - i), math.factorial(i)) * x**i
        total += -term if i % 2 else term
    return total


def laguerre_reference(k: int, alpha: int, x):
    """laguerre in the operation order of its first version, for float input.

    Not independent arithmetic: it keeps the upward recurrence with fresh
    temporaries per step, as it was before the loop was rewritten in place,
    so the rewrite can be checked bit for bit.
    """
    x = np.asarray(x)
    assert x.dtype.kind == "f"
    prev = np.ones_like(x)
    if k == 0:
        return prev
    current = 1 + alpha - x
    for j in range(1, k):
        prev, current = current, ((2 * j + 1 + alpha - x) * current - (j + alpha) * prev) / (j + 1)
    return current


def distribution_slope(spec, r) -> np.ndarray:
    """dP/dr = 2 r R (R + r dR/dr) of P = r^2 R^2, from the normalized R and R'.

    Elementwise on any shape of r.  It overflows where rho^l does (from n of
    about 130 on), which the package's sign helper avoids; below that it is
    the slope the sign helper must agree with.
    """
    big_r, d1, _ = radial_R_derivatives(spec, r)
    return 2.0 * r * big_r * (big_r + r * d1)


# The peak finder radial_peaks ran for every state before it took circular
# states only: the full logarithmic scan, then bisection steps resolved
# PEAK_TREE_LEVELS at a time on batched midpoint trees.  A scan bracket
# needs about 25 steps, so 5 levels (31 midpoints per tree) take 5 sign
# calls.
PEAK_TREE_LEVELS = 5


def slope_sign(spec, r) -> np.ndarray:
    """sign(L) ((1 + l - rho/2) L + rho L'), which has the sign of dP/dr; any shape of r.

    With R = N e^{-rho/2} rho^l L(rho), dP/dr = 2 r N^2 e^{-rho} rho^{2l}
    L ((1 + l - rho/2) L + rho L'), and every factor before the first L is
    positive.  scan_peaks evaluates it on its scan and midpoint trees,
    which are float arrays, so the recurrences run on them unchecked:
    L = L_k^{2l+1} and L' = -L_{k-1}^{2l+2}, k = n - l - 1.  At k = 0
    (every circular state) L = 1 and L' = 0, and the value is
    1 + l - rho/2 itself: the skipped x1, +0 and x sign(1) steps are exact
    no-ops for finite rho, so the bits are those of the full expression,
    and the package's _circular_peak repeats it in Python floats.  rho**l
    never enters, but the recurrences overflow at (300, 0) ((200, 0) and
    (300, 150) run clean).
    """
    rho = (2.0 / (spec.n * float(spec.constants.bohr_radius))) * np.asarray(r)
    k, l = spec.n - spec.l - 1, spec.l
    value = (1 + l) - rho / 2
    if k == 0:
        return value
    lag = specfun.laguerre(k, 2 * l + 1, rho)
    minus_lag1 = specfun.laguerre(k - 1, 2 * l + 2, rho)
    value *= lag
    minus_lag1 *= rho
    value -= minus_lag1
    value *= np.sign(lag)
    return value


def _midpoint_tree(lo: float, hi: float, levels: int) -> list[float]:
    """Every midpoint bisection of (lo, hi) can visit in `levels` steps, as a heap.

    Node j halves its interval (a, b) at 0.5 * (a + b); node 2j + 1 halves
    (a, mid) and node 2j + 2 halves (mid, b).  Each node is the float a
    scalar bisection computes.
    """
    intervals, mids = [(lo, hi)], []
    for _ in range(levels):
        halves = []
        for a, b in intervals:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += ((a, mid), (mid, b))
        intervals = halves
    return mids


def _bisect_in_tree(lo: float, hi: float, mids: list, signs: list) -> tuple[float, float]:
    """Bisect (lo, hi) along one midpoint tree until the bracket is narrow or leaves the tree."""
    j = 0
    while j < len(mids) and hydrogen._wide(lo, hi):
        mid, s = mids[j], signs[j]
        if s > 0:
            lo, j = mid, 2 * j + 2
        elif s < 0:
            hi, j = mid, 2 * j + 1
        else:
            lo = hi = mid
    return lo, hi


def peak_scan(spec) -> np.ndarray:
    """The full logarithmic scan of radial_peaks, equal to np.geomspace(r_lo, r_hi, num)."""
    r_lo, r_hi, num = hydrogen._peak_scan_range(spec)
    return hydrogen._peak_scan_window(r_lo, r_hi, num, 0, num)


def scan_peaks(spec) -> np.ndarray:
    """Strict local maxima of P_nl from the full scan and batched midpoint trees; any state.

    The scan, the stop test (_wide) and the scan window are the package's;
    the sign, the trees and the walk are kept here.  On a circular state
    it gives radial_peaks bit for bit.
    """
    scan = peak_scan(spec)
    sign = slope_sign(spec, scan)
    tops = np.nonzero((sign[:-1] > 0) & (sign[1:] < 0))[0]
    brackets = list(zip(scan[tops].tolist(), scan[tops + 1].tolist()))
    while open_ := [i for i, bracket in enumerate(brackets) if hydrogen._wide(*bracket)]:
        trees = [_midpoint_tree(*brackets[i], PEAK_TREE_LEVELS) for i in open_]
        signs = slope_sign(spec, np.array(trees)).tolist()
        for i, mids, tree_signs in zip(open_, trees, signs):
            brackets[i] = _bisect_in_tree(*brackets[i], mids, tree_signs)
    return np.asarray([0.5 * (lo + hi) for lo, hi in brackets])


def legendre_coefficients(l: int) -> list[Fraction]:
    """Exact coefficients of the Legendre polynomial P_l (ascending powers)."""
    previous = [Fraction(1)]
    if l == 0:
        return previous
    current = [Fraction(0), Fraction(1)]
    for j in range(1, l):
        nxt = [Fraction(0)] * (j + 2)
        for power, coeff in enumerate(current):
            nxt[power + 1] += Fraction(2 * j + 1, j + 1) * coeff
        for power, coeff in enumerate(previous):
            nxt[power] -= Fraction(j, j + 1) * coeff
        previous, current = current, nxt
    return current


def associated_legendre(l: int, m: int, x: Fraction) -> float:
    """P_l^m(x) with Condon-Shortley phase from exact polynomial arithmetic.

    P_l^m(x) = (-1)^m (1 - x^2)^{m/2} d^m/dx^m P_l(x); the derivative is
    taken on exact coefficients and only the final square root is floating.
    """
    coeffs = legendre_coefficients(l)
    for _ in range(m):
        coeffs = [power * coeff for power, coeff in enumerate(coeffs)][1:]
    value = Fraction(0)
    for power, coeff in enumerate(coeffs):
        value += coeff * x**power
    sine_factor = float(1 - x * x) ** (m / 2.0)
    return (-1) ** m * float(value) * sine_factor


def gauss_legendre_integral(fn, lo: float, hi: float, points: int = 200) -> float:
    nodes, weights = np.polynomial.legendre.leggauss(points)
    x = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    return float(0.5 * (hi - lo) * np.sum(weights * fn(x)))


def gamma_one_third() -> float:
    """Gamma(1/3) = 3 * integral(exp(-u^3), u=0..inf) by quadrature."""
    return 3.0 * gauss_legendre_integral(lambda u: np.exp(-(u**3)), 0.0, 8.0)


def gamma_two_thirds() -> float:
    """Gamma(2/3) = 3 * integral(u exp(-u^3), u=0..inf) by quadrature."""
    return 3.0 * gauss_legendre_integral(lambda u: u * np.exp(-(u**3)), 0.0, 8.0)


def local_maxima(x: np.ndarray, y: np.ndarray) -> list[float]:
    """Abscissae of strict interior local maxima of samples y(x)."""
    inner = (y[1:-1] > y[:-2]) & (y[1:-1] > y[2:])
    return [float(v) for v in x[1:-1][inner]]


def svg_polylines(x: np.ndarray, y: np.ndarray, mask=None) -> list[str]:
    """The `points` strings of write_svg's curve, one scalar sample at a time.

    This is the per-point loop the writer used before it computed pixel
    coordinates in numpy: each kept sample is mapped with scalar Python
    arithmetic, masked or non-finite samples close the current segment, and
    segments of a single point are dropped.  The canvas numbers repeat the
    writer's (640 x 420, margins 72/24/36/52).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    drop = ~np.isfinite(y)
    if mask is not None:
        drop = drop | np.asarray(mask, dtype=bool)
    keep = ~drop

    def axis_range(values):
        lo, hi = float(values.min()), float(values.max())
        if hi == lo:
            pad = max(abs(lo) * 1e-6, 1e-12)
            return lo - pad, hi + pad
        return lo, hi

    x_lo, x_hi = axis_range(x)
    y_lo, y_hi = axis_range(y[keep])
    plot_w = 640 - 72 - 24
    plot_h = 420 - 36 - 52

    def px(value: float) -> float:
        return 72 + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value: float) -> float:
        clipped = min(max(value, y_lo), y_hi)
        return 36 + (y_hi - clipped) / (y_hi - y_lo) * plot_h

    polylines = []
    segment: list[str] = []
    for xi, yi, ok in zip(x, y, keep):
        if ok:
            segment.append(f"{px(float(xi)):.2f},{py(float(yi)):.2f}")
        elif segment:
            if len(segment) > 1:
                polylines.append(" ".join(segment))
            segment = []
    if len(segment) > 1:
        polylines.append(" ".join(segment))
    return polylines


def profile_rows(curve) -> list[tuple[str, str, str]]:
    """CSV rows (coordinate, value, masked) of a profile curve, one row at a time.

    The per-row cells the profile CSV writer built before it filled every
    row from one format call: numbers through format_number, the value cell
    blank where the sample is masked or not finite.
    """
    rows = []
    for coord, value, masked in zip(curve.coords.tolist(), curve.values.tolist(), curve.masked.tolist()):
        shown = not masked and math.isfinite(value)
        rows.append((format_number(coord), format_number(value) if shown else "", "true" if masked else "false"))
    return rows


def airy_ai_reference(x):
    """airy_ai on |x| < 9 in the operation order of its first tabled version.

    Unlike the constructions above this is not independent arithmetic: it
    keeps the Maclaurin loop (fresh temporaries per term, stop test on the
    array maxima) and the station Horner loop (value * delta + row) as they
    were before the kernels were rewritten in place, so the rewrite can be
    checked bit for bit.  The station table itself is the package's.
    """
    flat = np.asarray(x).reshape(-1)
    assert flat.dtype in (np.dtype(np.float64), np.dtype(np.longdouble))
    assert np.all(np.abs(flat) < specfun._AIRY_ASYMPTOTIC_EDGE)
    out = np.empty_like(flat)
    small = np.abs(flat) <= specfun._AIRY_SERIES_EDGE
    if np.any(small):
        out[small] = _airy_maclaurin_reference(flat[small])
    if not np.all(small):
        out[~small] = _airy_horner_reference(flat[~small])
    return out.reshape(np.shape(x))


def _airy_maclaurin_reference(x):
    c_even = np.asarray(specfun._AI_ZERO, dtype=x.dtype)
    c_odd = np.asarray(specfun._AIP_ZERO, dtype=x.dtype)
    x3 = x * x * x
    term_f = np.ones_like(x)
    term_g = x.copy()
    total = c_even * term_f + c_odd * term_g
    for k in range(60):
        term_f = term_f * x3 / ((3 * k + 2) * (3 * k + 3))
        term_g = term_g * x3 / ((3 * k + 3) * (3 * k + 4))
        contribution = c_even * term_f + c_odd * term_g
        total = total + contribution
        if np.max(np.abs(term_f)) < 1e-25 and np.max(np.abs(term_g)) < 1e-25:
            break
    return total


def _airy_horner_reference(xm):
    steps = specfun._AIRY_LADDER_STEPS
    stations, coeffs = specfun._airy_stations(xm.dtype)
    rung = np.floor((specfun._AIRY_ASYMPTOTIC_EDGE - np.abs(xm)) / specfun._AIRY_STATION_STEP)
    outer = np.clip(rung, 0, steps - 1).astype(np.intp)
    outer += np.where(xm > 0, 0, steps + 1)
    idx = outer + (np.abs(xm - stations[outer + 1]) < np.abs(xm - stations[outer]))
    delta = xm - stations[idx]
    value = np.zeros_like(delta)
    for row in coeffs[::-1]:
        value = value * delta + row[idx]
    return value


def _floor_mask(values: np.ndarray, floor: float) -> np.ndarray:
    magnitude = np.abs(values)
    return magnitude >= floor * magnitude.max()


def radial_bohm_fd2(values, r, h: float, l: int, floor: float):
    """Bohm potential of R Y_lm in atomic units by three-point differences.

    The second-order radial path of the package before it moved to five
    points: R'' = (R+ - 2 R0 + R-)/h^2 and R' = (R+ - R-)/2h, in that
    path's operation order.  Returns (values, node_mask); a point is kept
    when |R| clears floor * max |R| at all three of its stencil points,
    and the two ends are masked.
    """
    valid = _floor_mask(values, floor)
    keep = np.zeros(values.shape, bool)
    keep[1:-1] = valid[:-2] & valid[1:-1] & valid[2:]
    minus, center, plus, rr = values[:-2], values[1:-1], values[2:], r[1:-1]
    lap = (plus - 2.0 * center + minus) / (h * h)
    lap = lap + 2.0 * ((plus - minus) / (2.0 * h)) / rr - l * (l + 1) * center / rr**2
    bohm = np.full(values.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        bohm[1:-1] = -0.5 * (lap / center)
    bohm[~keep] = np.nan
    return bohm, ~keep


def radial_bohm_fd4(values, r, h: float, l: int, floor: float):
    """Bohm potential of R Y_lm in atomic units by five-point differences.

        R'' = (-R+2 + 16 R+1 - 30 R0 + 16 R-1 - R-2) / 12h^2
        R'  = (-R+2 + 8 R+1 - 8 R-1 + R-2) / 12h
        V_Bohm = -(1/2) (R'' + 2 R'/r - l(l+1) R/r^2) / R

    Returns (values, node_mask); a point is kept when |R| clears
    floor * max |R| at all five of its stencil points, and the two points
    at each end are masked.
    """
    valid = _floor_mask(values, floor)
    keep = np.zeros(values.shape, bool)
    keep[2:-2] = valid[:-4] & valid[1:-3] & valid[2:-2] & valid[3:-1] & valid[4:]
    m2, m1, c, p1, p2 = values[:-4], values[1:-3], values[2:-2], values[3:-1], values[4:]
    rr = r[2:-2]
    d2 = (-p2 + 16.0 * p1 - 30.0 * c + 16.0 * m1 - m2) / (12.0 * h * h)
    d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    lap = d2 + 2.0 * d1 / rr - l * (l + 1) * c / rr**2
    bohm = np.full(values.shape, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        bohm[2:-2] = -0.5 * (lap / c)
    bohm[~keep] = np.nan
    return bohm, ~keep


def fd_flatness_reference(n: int, l: int, step: float = 1e-2, order: int = 4, floor: float = 0.05):
    """One state's fd flatness check, on its own grid, in atomic units.

    The grid is uniform from 1 to max(30, 4 n^2) bohr at the given step, as
    the package's fd flatness grid; R comes from the public radial_R.
    Returns (r, bohm, node_mask, deviation), the deviation being
    max |V + V_Bohm - E_n| / |E_n| over the kept points, V = -1/r.
    """
    r_hi = max(30.0, 4.0 * n * n)
    r = make_radial_grid(1.0, r_hi, int(round((r_hi - 1.0) / step)) + 1).points
    h = float(np.diff(r).mean())
    stencil = {2: radial_bohm_fd2, 4: radial_bohm_fd4}[order]
    bohm, node_mask = stencil(radial_R(state(n, l), r), r, h, l, floor)
    e_n = float(energy_level(n, atomic_units()))
    deviation = float(np.abs(bohm + -1.0 / r - e_n)[~node_mask].max()) / abs(e_n)
    return r, bohm, node_mask, deviation


def first_weights_reference(coords: np.ndarray) -> tuple:
    """Geometry of central_first_reference's stencil: h1^2, h2^2, h2^2 - h1^2, h1 h2 (h1 + h2)."""
    h1 = coords[1:-1] - coords[:-2]
    h2 = coords[2:] - coords[1:-1]
    denominator = h1 * h2
    denominator *= h1 + h2
    h1 *= h1
    h2 *= h2
    return h1, h2, h2 - h1, denominator


def central_first_reference(values: np.ndarray, coords: np.ndarray, weights: tuple | None = None) -> np.ndarray:
    """Second-order first derivative on a possibly nonuniform grid.

    A caller differentiating several fields on one grid passes
    first_weights_reference(coords) once instead of having each call rebuild it.
    """
    out = np.full(values.shape, np.nan, dtype=np.result_type(values, coords, float))
    h1_sq, h2_sq, h_diff, denominator = weights if weights is not None else first_weights_reference(coords)
    # (v+ h1^2 - v- h2^2 + v0 (h2^2 - h1^2)) / (h1 h2 (h1 + h2)), left to right.
    numerator = values[2:] * h1_sq
    numerator -= values[:-2] * h2_sq
    numerator += values[1:-1] * h_diff
    numerator /= denominator
    out[1:-1] = numerator
    return out


def decompose_reference(
    values,
    grid,
    constants: PhysicalConstants,
    amplitude_floor: float = AMPLITUDE_FLOOR,
) -> PolarForm:
    """Split complex samples into amplitude and unwrapped action phase.

    The phase is unwrapped independently on each contiguous run of points
    whose amplitude clears the floor (by unwrap_reference, np.unwrap bit for bit);
    below the floor the phase is undefined and the point is flagged invalid.
    A phase step larger than pi hbar/2 between neighbouring valid points is
    an unwrap failure (a sign-flip node crossed above the floor, or an
    under-resolved grid): both endpoints are flagged invalid so the jump
    splits the run.  No amplitude curvature is attached; amplitude_d2 stays
    None.
    """
    coords = as_points(grid)
    values = np.asarray(values, dtype=complex)
    if values.shape != coords.shape:
        raise ValueError("field and grid shapes differ")
    amplitude = np.abs(values)
    valid = _above_floor(amplitude, amplitude_floor)
    hbar = float(constants.hbar)
    phase = np.zeros_like(amplitude)
    raw = np.angle(values)
    for start, stop in _runs(valid):
        phase[start:stop] = hbar * unwrap_reference(raw[start:stop])
    jump = (valid[:-1] & valid[1:]) & (np.abs(np.diff(phase)) > 0.5 * math.pi * hbar)
    valid[:-1] &= ~jump
    valid[1:] &= ~jump
    phase = np.where(valid, phase, 0.0)
    return PolarForm(coords=coords, amplitude=amplitude, phase=phase, valid=valid)


def unwrap_reference(angles: np.ndarray) -> np.ndarray:
    """np.unwrap(angles) bit for bit, wrapping only the steps that need it.

    np.unwrap reduces every step into [-pi, pi) and then zeroes the
    correction wherever |step| < pi.  Here the reduction, the +pi tie fix
    and the correction run only on the other steps, selected as
    ~(|step| < pi) so that a NaN step stays NaN as in np.unwrap.  The
    running sum and the final add stay dense.
    """
    steps = np.diff(angles)
    jumps = np.flatnonzero(~(np.abs(steps) < math.pi))
    correction = np.zeros_like(steps)
    if jumps.size:
        step = steps[jumps]
        wrapped = np.mod(step + math.pi, 2.0 * math.pi) - math.pi
        wrapped[(wrapped == -math.pi) & (step > 0)] = math.pi
        correction[jumps] = wrapped - step
    out = angles.copy()
    out[1:] = angles[1:] + correction.cumsum()
    return out


def quantum_acceleration_reference(quantum: PotentialProfile, constants: PhysicalConstants) -> np.ndarray:
    """a_Q = -grad(V_Q)/m by central differences; NaN where not computable.

    Gradients are taken only inside contiguous unmasked runs (three-point
    stencils never straddle a masked node), so runs shorter than three
    points contribute nothing.
    """
    ok = _interior(~quantum.node_mask)
    grad = central_first_reference(quantum.values, quantum.coords)
    accel = -grad / float(constants.mass)
    return np.where(ok, accel, np.nan)


def laplacian_ratio_reference(polar: PolarForm) -> np.ndarray:
    """A''/A along the line."""
    d2 = _central_second(polar.amplitude, polar.coords) if polar.amplitude_d2 is None else polar.amplitude_d2
    with np.errstate(divide="ignore", invalid="ignore"):
        return d2 / polar.amplitude


def hj_residual_field_reference(
    polar: PolarForm, v_external, ds_dt, constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (grad S)^2/2m - (hbar^2/2m) lap(A)/A + V + dS/dt.

    Returns the residual samples and the mask of points where every term
    could be evaluated.  dS/dt is passed as closed-form or finite-differenced
    samples.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    grad_s = central_first_reference(polar.phase, polar.coords)
    ok = _interior(polar.valid)
    kinetic = grad_s**2
    lap_ratio = laplacian_ratio_reference(polar)
    residual = kinetic / (2.0 * mass) - (hb * hb / (2.0 * mass)) * lap_ratio + v_external + ds_dt
    if not ok.any():
        raise ValueError("no usable interior points")
    return residual, ok


def continuity_residual_reference(
    polar_a: PolarForm, polar_b: PolarForm, dt: float, constants: PhysicalConstants
) -> float:
    """Max |div(A^2 grad S / m) + d(A^2)/dt| at the midpoint of two times.

    The two forms bracket the evaluation time symmetrically, so the time
    derivative is second-order accurate.  A stationary state may simply be
    passed twice (its density difference vanishes identically).
    """
    if not np.array_equal(polar_a.coords, polar_b.coords):
        raise ValueError("polar forms live on different grids")
    mass = float(constants.mass)
    coords = polar_a.coords
    valid = polar_a.valid & polar_b.valid
    density = 0.5 * (polar_a.amplitude**2 + polar_b.amplitude**2)
    phase = 0.5 * (polar_a.phase + polar_b.phase)
    weights = first_weights_reference(coords)
    flux = density * central_first_reference(phase, coords, weights) / mass
    divergence = central_first_reference(flux, coords, weights)
    density_rate = (polar_b.amplitude**2 - polar_a.amplitude**2) / dt
    return _worst(divergence + density_rate, _interior(_interior(valid)))


def euler_residual_reference(
    polar_a: PolarForm,
    polar_b: PolarForm,
    dt: float,
    quantum: PotentialProfile,
    constants: PhysicalConstants,
) -> float:
    """Max |dp/dt + (p/m) grad p + grad V_Q| with p = grad S.

    Newton's law for the momentum field: the convective derivative of p
    balances the quantum-potential gradient.  The two polar forms bracket
    the evaluation time; a stationary state may be passed twice.
    """
    if not np.array_equal(polar_a.coords, polar_b.coords):
        raise ValueError("polar forms live on different grids")
    if not np.array_equal(quantum.coords, polar_a.coords):
        raise ValueError("quantum profile lives on a different grid")
    mass = float(constants.mass)
    coords = polar_a.coords
    weights = first_weights_reference(coords)
    p_a = central_first_reference(polar_a.phase, coords, weights)
    p_b = central_first_reference(polar_b.phase, coords, weights)
    p_mid = 0.5 * (p_a + p_b)
    dp_dt = (p_b - p_a) / dt
    advection = (p_mid / mass) * central_first_reference(p_mid, coords, weights)
    grad_q = central_first_reference(quantum.values, coords, weights)
    valid = polar_a.valid & polar_b.valid & ~quantum.node_mask
    return _worst(dp_dt + advection + grad_q, _interior(_interior(valid)))


def airy_phase_reference(params: AiryPacketParams, x, t: float):
    """Action phase S(x, t) = B^3 t (6 m^2 x - B^3 t^2) / 12 m^3."""
    b3 = params.strength**3
    m = float(params.constants.mass)
    return b3 * t * (6.0 * m * m * np.asarray(x) - b3 * t * t) / (12.0 * m**3)


def packet_field_reference(params: AiryPacketParams, x, t: float, envelope) -> np.ndarray:
    """Ai(u) e^{iS/hbar} from the envelope Ai(u) already evaluated on x."""
    hbar = float(params.constants.hbar)
    return envelope * np.exp(1j * airy_phase_reference(params, x, t) / hbar)


def bohm_shell_reference(n: int, ls, constants: PhysicalConstants, r: np.ndarray):
    """(values, usable) of (n, l) for each l in ls, each in arrays of its own.

    values is NaN where a point is not usable.  Shares rho, e^{-rho/2} and
    the L'' of (n, l) with the L chain of (n, l + 1) as the package does.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    a = float(constants.bohr_radius)
    c = 2.0 / (n * a)
    rho = c * r
    envelope = np.exp(-rho / 2)
    zeros = np.zeros_like(rho)
    scale = c * c
    coefficient = -(hb * hb / (2.0 * mass))
    shared_l, shared = None, None
    for l in ls:
        k = n - l - 1
        if k < 2:
            lag2 = zeros
        elif shared_l == l + 1:
            lag2 = shared
        else:
            lag2 = _laguerre_pair(k - 2, 2 * l + 3, rho)[0]
        lag, shared = _laguerre_pair(k, 2 * l + 1, rho)
        shared_l = l
        if k >= 1:
            lag1 = _laguerre_pair(k - 1, 2 * l + 2, rho)[0]
            lag1 *= -1
        else:
            lag1 = zeros
        usable = _above_floor(np.abs(_radial_from_laguerre(n, l, a, rho, lag, envelope)), AMPLITUDE_FLOOR)
        safe_lag = np.where(usable, lag, 1.0)
        ratio1 = lag1 / safe_lag
        ratio2 = lag2 / safe_lag
        lap_ratio = scale * (2.0 * (l + 1) / rho * (ratio1 - 0.5) + 0.25 - ratio1 + ratio2)
        yield np.where(usable, coefficient * lap_ratio, np.nan), usable


def overlap_reference(spec_a, spec_b) -> complex:
    """<psi_a | psi_b> with every rule and factor formed afresh, in overlap's operation order."""
    if spec_a.constants != spec_b.constants:
        raise ValueError("overlap requires both states to use the same constants")
    qa, qb = spec_a.qn, spec_b.qn
    a = float(spec_a.constants.bohr_radius)
    beta = (1.0 / qa.n + 1.0 / qb.n) / a
    x, w = np.polynomial.laguerre.laggauss((qa.n + qb.n) // 2 + 1)
    r = x / beta
    root_w_r = np.exp(0.5 * ((np.log(w) + x) - math.log(beta))) * r
    cos_nodes, w_cos = np.polynomial.legendre.leggauss((qa.l + qb.l) // 2 + 1)
    theta = np.arccos(cos_nodes)[:, None]
    azimuthal = abs(qa.m - qb.m) + 1
    step = 2.0 * math.pi / azimuthal
    phi = step * np.arange(azimuthal)[None, :]
    root_w_angle = np.sqrt(step * w_cos[:, None])

    radial = np.dot(root_w_r * radial_R(spec_a, r), root_w_r * radial_R(spec_b, r))
    angular = np.vdot(
        root_w_angle * specfun.spherical_harmonic(qa.l, qa.m, theta, phi),
        root_w_angle * specfun.spherical_harmonic(qb.l, qb.m, theta, phi),
    )
    return complex(radial * angular)


def airy_peak_reference(params: AiryPacketParams, grid, t: float) -> float:
    """Grid position of the density maximum at t, searched over the whole grid."""
    density = np.abs(airy_psi(params, grid.points, t)) ** 2
    return float(grid.points[int(np.argmax(density))])
