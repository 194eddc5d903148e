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
radial_peaks read before it switched to a sign helper.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import hydrobohm.hydrogen as hydrogen
from hydrobohm import (
    atomic_units,
    energy_level,
    make_radial_grid,
    radial_R,
    radial_R_derivatives,
    specfun,
    state,
)
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
