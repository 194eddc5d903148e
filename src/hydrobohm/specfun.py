"""Special functions implemented from recurrences and series.

Everything here is self-contained on purpose: the verification campaigns
compare these evaluations against independent oracles (explicit series
coefficients, finite differences, quadrature), so no external special
function library is used on either path of that comparison.

All evaluators preserve the floating dtype of their input, so callers can
request np.longdouble samples when building finite-difference stencils whose
truncation error would otherwise drown in double-precision rounding noise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "ln_factorial",
    "laguerre",
    "laguerre_derivative",
    "spherical_harmonic",
    "airy_ai",
]


_LN_FACTORIAL_MAX = 200


def ln_factorial(k: int) -> float:
    """ln(k!) by compensated summation of ln(2) + ... + ln(k).

    Supports 0 <= k <= 200, which covers every normalization constant used
    by the eigenstate module with a wide margin.
    """
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or k > _LN_FACTORIAL_MAX:
        raise ValueError(f"k must lie in [0, {_LN_FACTORIAL_MAX}], got {k}")
    return _log_factorial_sum(int(k))


@functools.cache
def _log_factorial_sum(k: int) -> float:
    return math.fsum(math.log(i) for i in range(2, k + 1))


def _check_laguerre_args(k: int, alpha: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree k must be a non-negative integer, got {k!r}")
    if not isinstance(alpha, (int, np.integer)) or alpha < 0:
        raise ValueError(f"alpha must be a non-negative integer, got {alpha!r}")


def _float_points(x) -> np.ndarray:
    """x as an array, converted to float64 unless it is already floating or complex."""
    x = np.asarray(x)
    return x if x.dtype.kind in "fc" else x.astype(float)


def laguerre(k: int, alpha: int, x):
    """Generalized Laguerre polynomial L_k^alpha(x).

    Uses the three-term recurrence

        (j + 1) L_{j+1} = (2j + 1 + alpha - x) L_j - (j + alpha) L_{j-1}

    started from L_0 = 1 and L_1 = 1 + alpha - x.  The upward recurrence
    loses digits near the first node of L as k grows: `flatness --n-max
    100` runs k up to 99, and 179 of its 5,050 (n, l) pairs miss the 1e-8
    flatness tolerance there (ROADMAP item 2).  Each step updates one
    fresh array in place, in the operation order of the formula above.
    Points that are neither floating nor complex are evaluated as float64.
    The recurrence is _laguerre_pair, which also hands back L_{k-1}: the
    flatness shell of madelung reads L'' of (n, l) off the chain that gives
    L of (n, l + 1).
    """
    _check_laguerre_args(k, alpha)
    return _laguerre_pair(k, alpha, _float_points(x))[0]


def _laguerre_pair(k: int, alpha: int, x: np.ndarray):
    """(L_k^alpha(x), L_{k-1}^alpha(x)) from one upward recurrence.

    x must be a floating or complex array.  The second value is the
    recurrence's own previous term, which no in-place update touches after
    its last step, so it equals laguerre(k - 1, alpha, x) bit for bit.  At
    k = 0 there is no previous term, and the second value is None.
    """
    prev = np.ones_like(x)
    if k == 0:
        return prev, None
    current = 1 + alpha - x
    for j in range(1, k):
        nxt = (2 * j + 1 + alpha) - x
        nxt *= current
        prev *= j + alpha
        nxt -= prev
        nxt /= j + 1
        prev, current = current, nxt
    return current, prev


def laguerre_derivative(k: int, alpha: int, x, order: int = 1):
    """d^order/dx^order of L_k^alpha(x) via d/dx L_k^alpha = -L_{k-1}^{alpha+1}."""
    _check_laguerre_args(k, alpha)
    if not isinstance(order, (int, np.integer)) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if k < order:
        return np.zeros_like(_float_points(x))
    sign = -1 if order % 2 else 1
    return sign * laguerre(k - order, alpha + order, x)


def _legendre_assoc(l: int, m: int, cos_t, sin_t):
    """Associated Legendre P_l^m with Condon-Shortley phase, m >= 0.

    Seeded with P_m^m = (-1)^m (2m - 1)!! sin^m(theta) and raised in l with
    (l - m) P_l^m = cos(theta) (2l - 1) P_{l-1}^m - (l + m - 1) P_{l-2}^m.
    """
    double_fact = 1.0
    for i in range(1, 2 * m, 2):
        double_fact *= i
    pmm = ((-1) ** m) * double_fact * sin_t**m if m > 0 else np.ones_like(cos_t)
    if l == m:
        return pmm
    pm_prev = pmm
    pm = cos_t * (2 * m + 1) * pmm
    for ll in range(m + 2, l + 1):
        pm_prev, pm = pm, (cos_t * (2 * ll - 1) * pm - (ll + m - 1) * pm_prev) / (ll - m)
    return pm


# Largest l + |m| spherical_harmonic accepts.  The factor exp(ln (l-m)! -
# ln (l+m)!) of its normalization turns subnormal as l + |m| grows: its worst
# relative error over l <= 99 is 1.9e-11 at l + |m| = 173, 9.9e-9 at 174 and
# 3.8e-2 at 177, and from 178 it underflows to 0.
HARMONIC_LM_MAX = 173


def spherical_harmonic(l: int, m: int, theta, phi):
    """Orthonormal spherical harmonic Y_l^m(theta, phi), Condon-Shortley phase.

    Y_l^m = (-1)^m sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m(cos theta) e^{i m phi}
    for m >= 0 (the phase lives in P_l^m here), and Y_l^{-m} = (-1)^m conj(Y_l^m).
    Raises ValueError past l + |m| = HARMONIC_LM_MAX, where the
    normalization can lose its digits.
    """
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")
    if not isinstance(m, (int, np.integer)) or abs(m) > l:
        raise ValueError(f"m must be an integer with |m| <= l, got {m!r}")
    if l + abs(m) > HARMONIC_LM_MAX:
        raise ValueError(f"spherical_harmonic supports l + |m| <= {HARMONIC_LM_MAX}, got l={l}, m={m}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    mm = abs(int(m))
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.exp(ln_factorial(l - mm) - ln_factorial(l + mm))
    )
    plm = _legendre_assoc(int(l), mm, np.cos(theta), np.sin(theta))
    harmonic = norm * plm * np.exp(1j * mm * phi)
    if m < 0:
        harmonic = ((-1) ** mm) * np.conj(harmonic)
    return harmonic


# --- Airy function -----------------------------------------------------------
#
# Three regimes, chosen so the relative accuracy target of 1e-10 holds on the
# whole supported range |x| <= 20 (near the oscillatory zeros the target is
# relative to the local envelope):
#
#   |x| <= 1.8        Maclaurin pair.  The series itself converges for all
#                     x, but its two sums cancel like e^{2 zeta} as |x| grows
#                     (already ~1e-14 absolute near |x| = 4), and differencing
#                     callers amplify any absolute noise by 1/h^2; keeping the
#                     series zone small keeps that noise at a few ulps.
#   |x| >= 9          Asymptotic series (monotonic and oscillatory forms).
#   1.8 < |x| < 9     Taylor series of the ODE y'' = x y about the nearest
#                     station of a 0.6-spaced ladder anchored at |x| = 9 (13
#                     stations per side).  The ladder is marched once toward
#                     smaller |x|, the stable direction on the positive side
#                     and neutral on the oscillatory side.  A point finds its
#                     station by arithmetic on the ladder; at an exact
#                     midpoint it takes the outer station.
#
# Both series loops update their arrays in place; each in-place step keeps the
# operation order of the plain expression (value * delta + row), so the bits
# are those of the allocating form.  The Maclaurin loop stops before its
# first addition that cannot change a bit: when |c_even term_f| +
# |c_odd term_g| < eps / 2^7, eps of the dtype.  On |x| <= 1.8 every partial
# sum lies near Ai >= 0.047 > 2^-5, and for a sum s >= 2^-5 the gap to
# either neighbour of s is at least eps / 2^6, so such an addition rounds
# back to s.  Each later pair of terms is smaller still (a step scales them
# by |x|^3 / 30 or less), so the sums keep the bits of a loop run on to
# convergence.  The loop reads the test off one point: the one with the
# largest |x|.  Rounding is monotone, so each step maps a larger |x| (and a
# larger previous term) to a term at least as large; by induction that
# point holds the array maximum of both products at every k.  The bound
# needs that point inside the series zone, and _airy_maclaurin checks it.
# In float64, |x| = 1.8 takes 11 additions and stops in the 12th pass.

_AIRY_SUPPORTED = 20.0
_AIRY_SERIES_EDGE = 1.8
_AIRY_ASYMPTOTIC_EDGE = 9.0
_AIRY_STATION_STEP = 0.6
_AIRY_LADDER_STEPS = int(round((_AIRY_ASYMPTOTIC_EDGE - _AIRY_SERIES_EDGE) / _AIRY_STATION_STEP))
_AIRY_TAYLOR_TERMS = 42

_AI_ZERO = "0.355028053887817239260063186004183176398"
_AIP_ZERO = "-0.258819403792806798405183560189203963479"
_PI = "3.141592653589793238462643383279502884197"


def _airy_maclaurin(x, dtype):
    """Ai via the two Maclaurin series of y'' = x y, for |x| <= _AIRY_SERIES_EDGE.

    The loop stops before its first addition that changes no bit.  The
    comment above shows that this keeps every bit only inside the series
    zone, so a widest point past it raises ValueError.
    """
    widest = int(np.argmax(np.abs(x)))
    if not abs(x[widest]) <= _AIRY_SERIES_EDGE:
        raise ValueError(f"the Maclaurin series of Ai serves |x| <= {_AIRY_SERIES_EDGE}, got {x[widest]!r}")
    stop = np.finfo(dtype).eps / 2**7
    c_even = np.asarray(_AI_ZERO, dtype=dtype)
    c_odd = np.asarray(_AIP_ZERO, dtype=dtype)
    x3 = x * x * x
    term_f = np.ones_like(x)
    term_g = x.copy()
    total = c_even * term_f + c_odd * term_g
    contribution = np.empty_like(x)
    odd_part = np.empty_like(x)
    for k in range(60):
        term_f *= x3
        term_f /= (3 * k + 2) * (3 * k + 3)
        term_g *= x3
        term_g /= (3 * k + 3) * (3 * k + 4)
        np.multiply(c_even, term_f, out=contribution)
        np.multiply(c_odd, term_g, out=odd_part)
        if abs(contribution[widest]) + abs(odd_part[widest]) < stop:
            break
        contribution += odd_part
        total += contribution
    return total


@functools.cache
def _airy_asymptotic_coefficients(count: int, dtype):
    """u_k and v_k of the large-argument expansions, by their term ratio."""
    u = np.empty(count, dtype=dtype)
    v = np.empty(count, dtype=dtype)
    u[0] = 1.0
    v[0] = 1.0
    for k in range(1, count):
        ratio = (
            np.asarray((6 * k - 1) * (6 * k - 3) * (6 * k - 5), dtype=dtype)
            / np.asarray(216 * k * (2 * k - 1), dtype=dtype)
        )
        u[k] = u[k - 1] * ratio
        v[k] = -u[k] * (6 * k + 1) / np.asarray(6 * k - 1, dtype=dtype)
    return u, v


def _airy_asymptotic_positive(x, dtype):
    """Ai and Ai' for x >= ~9 from the monotonic asymptotic expansion."""
    pi = np.asarray(_PI, dtype=dtype)
    u, v = _airy_asymptotic_coefficients(36, dtype)
    zeta = (2.0 / 3.0) * x ** np.asarray(1.5, dtype=dtype)
    inv = 1.0 / zeta
    sum_u = np.zeros_like(x)
    sum_v = np.zeros_like(x)
    power = np.ones_like(x)
    sign = 1.0
    for k in range(36):
        sum_u = sum_u + sign * u[k] * power
        sum_v = sum_v + sign * v[k] * power
        power = power * inv
        sign = -sign
    front = np.exp(-zeta) / (2.0 * np.sqrt(pi))
    ai = front * sum_u / x ** np.asarray(0.25, dtype=dtype)
    aip = -front * sum_v * x ** np.asarray(0.25, dtype=dtype)
    return ai, aip


def _airy_asymptotic_negative(x, dtype):
    """Ai and Ai' for x <= ~-9 from the oscillatory asymptotic expansion."""
    pi = np.asarray(_PI, dtype=dtype)
    u, v = _airy_asymptotic_coefficients(36, dtype)
    t = -x
    zeta = (2.0 / 3.0) * t ** np.asarray(1.5, dtype=dtype)
    inv2 = 1.0 / (zeta * zeta)
    even_u = np.zeros_like(t)
    odd_u = np.zeros_like(t)
    even_v = np.zeros_like(t)
    odd_v = np.zeros_like(t)
    power = np.ones_like(t)
    sign = 1.0
    for k in range(18):
        even_u = even_u + sign * u[2 * k] * power
        even_v = even_v + sign * v[2 * k] * power
        odd_u = odd_u + sign * u[2 * k + 1] * power / zeta
        odd_v = odd_v + sign * v[2 * k + 1] * power / zeta
        power = power * inv2
        sign = -sign
    angle = zeta - pi / 4.0
    cos_a = np.cos(angle)
    sin_a = np.sin(angle)
    root = np.sqrt(pi)
    quarter = t ** np.asarray(0.25, dtype=dtype)
    ai = (cos_a * even_u + sin_a * odd_u) / (root * quarter)
    aip = (sin_a * even_v - cos_a * odd_v) * quarter / root
    return ai, aip


def _airy_taylor_coefficients(x0, ai0, aip0) -> list:
    """Taylor coefficients of y'' = x y about x0 from (Ai, Ai')(x0); elementwise."""
    coeffs = [ai0, aip0]
    for k in range(_AIRY_TAYLOR_TERMS - 2):
        lower = coeffs[k - 1] if k >= 1 else np.zeros_like(ai0)
        coeffs.append((x0 * coeffs[k] + lower) / ((k + 1) * (k + 2)))
    return coeffs


def _airy_taylor_step(x0, ai0, aip0, delta):
    """Advance (Ai, Ai') from x0 by delta with a Taylor series of y'' = x y."""
    coeffs = _airy_taylor_coefficients(x0, ai0, aip0)
    value = np.zeros_like(delta)
    slope = np.zeros_like(delta)
    for k in range(len(coeffs) - 1, -1, -1):
        value = value * delta + coeffs[k]
        if k >= 1:
            slope = slope * delta + k * coeffs[k]
    return value, slope


@functools.cache
def _airy_stations(dtype) -> tuple[np.ndarray, np.ndarray]:
    """The 26 station positions and their 42 x 26 Taylor table, once per dtype.

    Positions run |x| = 9, 8.4, ..., 1.8 on the positive side, then the same
    on the negative side; row k of the table holds every station's k-th
    coefficient (rows 0 and 1 are Ai and Ai').  The ladder is always marched
    in extended precision and then cast: the cast costs one rounding, while
    marching in float64 would accumulate a station error an order of
    magnitude above it.  (Either way the anchors carry the intrinsic
    ~e^{-2 zeta(9)} floor of the asymptotic series.)
    """
    work = np.dtype(np.longdouble)
    ladder = []
    for sign, asymptotic in ((1.0, _airy_asymptotic_positive), (-1.0, _airy_asymptotic_negative)):
        x0 = np.asarray(sign * _AIRY_ASYMPTOTIC_EDGE, dtype=work)
        ai, aip = asymptotic(x0, work)
        ladder.append((x0, ai, aip))
        delta = np.asarray(-sign * _AIRY_STATION_STEP, dtype=work)
        for _ in range(_AIRY_LADDER_STEPS):
            ai, aip = _airy_taylor_step(x0, ai, aip, delta)
            x0 = x0 + delta
            ladder.append((x0, ai, aip))
    stations, values, slopes = (np.asarray(column, dtype=dtype) for column in zip(*ladder))
    return stations, np.asarray(_airy_taylor_coefficients(stations, values, slopes))


def _airy_points(x) -> np.ndarray:
    """x as an array in airy_ai's dtype: longdouble stays, any other real dtype is read as float64."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise ValueError("airy_ai needs a real argument; got a complex one")
    return x if x.dtype == np.longdouble else x.astype(np.float64, copy=False)


def airy_ai(x):
    """Airy function Ai(x) on |x| <= 20 to ~1e-10 relative accuracy.

    Near the negative-axis zeros the accuracy statement is relative to the
    local oscillation envelope rather than to the (vanishing) value itself.
    """
    x_arr = _airy_points(x)
    dtype = x_arr.dtype
    flat = x_arr.reshape(-1)
    if not np.all(np.abs(flat) <= _AIRY_SUPPORTED):
        raise ValueError(f"airy_ai supports |x| <= {_AIRY_SUPPORTED}")
    out = np.empty_like(flat)

    small = np.abs(flat) <= _AIRY_SERIES_EDGE
    if np.any(small):
        out[small] = _airy_maclaurin(flat[small], dtype)
    far_pos = flat >= _AIRY_ASYMPTOTIC_EDGE
    if np.any(far_pos):
        out[far_pos] = _airy_asymptotic_positive(flat[far_pos], dtype)[0]
    far_neg = flat <= -_AIRY_ASYMPTOTIC_EDGE
    if np.any(far_neg):
        out[far_neg] = _airy_asymptotic_negative(flat[far_neg], dtype)[0]
    mid = ~(small | far_pos | far_neg)
    if np.any(mid):
        stations, coeffs = _airy_stations(dtype)
        xm = flat[mid]
        # Outer neighbour by ladder arithmetic, then the nearer of it and the
        # next inner one; on a tie the strict < keeps the outer station.
        rung = np.floor((_AIRY_ASYMPTOTIC_EDGE - np.abs(xm)) / _AIRY_STATION_STEP)
        outer = np.clip(rung, 0, _AIRY_LADDER_STEPS - 1).astype(np.intp)
        outer += np.where(xm > 0, 0, _AIRY_LADDER_STEPS + 1)
        idx = outer + (np.abs(xm - stations[outer + 1]) < np.abs(xm - stations[outer]))
        delta = xm - stations[idx]
        value = np.zeros_like(delta)
        for row in coeffs[::-1]:
            value *= delta
            value += row[idx]
        out[mid] = value
    out = out.reshape(x_arr.shape)
    if x_arr.shape == ():
        return out[()]
    return out
