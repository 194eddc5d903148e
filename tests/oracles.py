"""Independent oracle constructions used by the tests.

Everything here is built from first principles (exact rational series,
quadrature of defining integrals, dense-grid scans) so the package's
recurrence- and series-based evaluators are checked against genuinely
different arithmetic, not against themselves.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def laguerre_series(k: int, alpha: int, x: Fraction) -> Fraction:
    """Exact generalized Laguerre value from the explicit coefficient sum.

    L_k^alpha(x) = sum_i (-1)^i C(k + alpha, k - i) x^i / i!
    """
    total = Fraction(0)
    for i in range(k + 1):
        term = Fraction(math.comb(k + alpha, k - i), math.factorial(i)) * x**i
        total += -term if i % 2 else term
    return total


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
