"""Recurrence/series evaluators checked against independent constructions."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from hydrobohm import (
    AiryPacketParams,
    airy_ai,
    airy_argument,
    atomic_units,
    laguerre,
    laguerre_derivative,
    specfun,
    spherical_harmonic,
)
from hydrobohm.campaigns import _airy_residual_grid
from hydrobohm.specfun import HARMONIC_LM_MAX, ln_factorial

import oracles


class TestLnFactorial:
    def test_matches_exact_log_of_factorial(self):
        for k in range(0, 40):
            assert ln_factorial(k) == pytest.approx(
                math.log(math.factorial(k)), rel=1e-14, abs=1e-14
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ln_factorial(-1)


class TestLaguerre:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 9, 14])
    @pytest.mark.parametrize("alpha", [0, 1, 3, 7])
    def test_matches_exact_coefficient_series(self, k, alpha):
        for x in (Fraction(0), Fraction(1, 3), Fraction(7, 2), Fraction(25, 2), Fraction(-2)):
            exact = oracles.laguerre_series(k, alpha, x)
            computed = laguerre(k, alpha, float(x))
            assert computed == pytest.approx(float(exact), rel=1e-12, abs=1e-12)

    def test_vectorized_evaluation(self):
        x = np.linspace(0.0, 30.0, 101)
        values = laguerre(4, 2, x)
        assert values.shape == x.shape
        for xi, vi in zip(x[::20], values[::20]):
            exact = oracles.laguerre_series(4, 2, Fraction(xi).limit_denominator(10**12))
            assert vi == pytest.approx(float(exact), rel=1e-10)

    @pytest.mark.parametrize("order", [1, 2])
    def test_derivative_reduction_identity(self, order):
        # d^j/dx^j L_k^a = (-1)^j L_{k-j}^{a+j}
        x = np.linspace(0.0, 18.0, 37)
        for k in (2, 4, 7):
            for alpha in (0, 3):
                lhs = laguerre_derivative(k, alpha, x, order=order)
                rhs = (-1.0) ** order * laguerre(k - order, alpha + order, x)
                np.testing.assert_allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_derivative_beyond_degree_is_zero(self):
        np.testing.assert_array_equal(laguerre_derivative(1, 2, np.array([0.5, 2.0]), order=2), 0.0)

    def test_derivative_matches_central_difference(self):
        x = np.linspace(0.5, 12.0, 24)
        h = 1e-6
        fd = (laguerre(6, 1, x + h) - laguerre(6, 1, x - h)) / (2.0 * h)
        np.testing.assert_allclose(laguerre_derivative(6, 1, x), fd, rtol=1e-7, atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_keeps_the_bits_and_dtype_of_the_reference_loop(self, dtype):
        # The pair's second value, the chain's previous term, is the
        # reference loop one degree lower.
        x = np.linspace(0.0, 80.0, 2001).astype(dtype)
        for k in range(31):
            for alpha in (0, 1, 7):
                value = laguerre(k, alpha, x)
                assert value.dtype == dtype
                assert _same_bits(value, oracles.laguerre_reference(k, alpha, x)), (k, alpha)
                current, previous = specfun._laguerre_pair(k, alpha, x)
                assert _same_bits(current, value), (k, alpha)
                if k == 0:
                    assert previous is None
                else:
                    assert _same_bits(previous, oracles.laguerre_reference(k - 1, alpha, x)), (k, alpha)

    @pytest.mark.parametrize("k", range(7))
    def test_integer_points_evaluate_as_float64(self, k):
        points = np.arange(4)
        as_floats = points.astype(np.float64)
        assert _same_bits(laguerre(k, 1, points), laguerre(k, 1, as_floats))
        for order in (1, 2):
            derivative = laguerre_derivative(k, 1, points, order=order)
            assert _same_bits(derivative, laguerre_derivative(k, 1, as_floats, order=order))

    def test_spec_validation(self):
        x = np.array([0.5, 2.0])
        with pytest.raises(ValueError):
            laguerre(-1, 0, x)
        with pytest.raises(ValueError):
            laguerre(2, -1, x)


class TestSphericalHarmonic:
    def test_explicit_low_order_values(self):
        # Textbook closed forms, including the Condon-Shortley sign.
        theta, phi = 0.7, 1.1
        ct, st = math.cos(theta), math.sin(theta)
        table = {
            (0, 0): 0.5 / math.sqrt(math.pi),
            (1, 0): math.sqrt(3.0 / (4.0 * math.pi)) * ct,
            (1, 1): -math.sqrt(3.0 / (8.0 * math.pi)) * st * np.exp(1j * phi),
            (2, 0): math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * ct**2 - 1.0),
            (2, 1): -math.sqrt(15.0 / (8.0 * math.pi)) * st * ct * np.exp(1j * phi),
            (2, 2): math.sqrt(15.0 / (32.0 * math.pi)) * st**2 * np.exp(2j * phi),
            (3, 0): math.sqrt(7.0 / (16.0 * math.pi)) * (5.0 * ct**3 - 3.0 * ct),
            (3, 3): -math.sqrt(35.0 / (64.0 * math.pi)) * st**3 * np.exp(3j * phi),
        }
        for (l, m), expected in table.items():
            computed = spherical_harmonic(l, m, theta, phi)
            assert computed == pytest.approx(expected, rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("l, m", [(1, 1), (3, 2), (5, 4), (8, 5), (10, 10)])
    def test_negative_m_conjugation(self, l, m):
        theta, phi = 1.234, 0.456
        plus = spherical_harmonic(l, m, theta, phi)
        minus = spherical_harmonic(l, -m, theta, phi)
        assert minus == pytest.approx((-1.0) ** m * np.conj(plus), rel=1e-12)

    @pytest.mark.parametrize("l, m", [(4, 1), (6, 3), (9, 7), (12, 0)])
    def test_polar_part_matches_exact_legendre_oracle(self, l, m):
        norm = math.sqrt(
            (2 * l + 1)
            / (4.0 * math.pi)
            * math.factorial(l - m)
            / math.factorial(l + m)
        )
        for x in (Fraction(1, 3), Fraction(-3, 5), Fraction(9, 10)):
            theta = math.acos(float(x))
            expected = norm * oracles.associated_legendre(l, m, x)
            computed = spherical_harmonic(l, m, theta, 0.0)
            assert computed.real == pytest.approx(expected, rel=1e-11, abs=1e-13)
            assert computed.imag == pytest.approx(0.0, abs=1e-15)

    def test_orthonormality_by_quadrature(self):
        nodes, weights = np.polynomial.legendre.leggauss(48)
        theta = np.arccos(nodes)
        phi = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        th, ph = np.meshgrid(theta, phi, indexing="ij")
        pairs = [((2, 1), (2, 1)), ((5, -3), (5, -3)), ((4, 2), (6, 2)), ((7, 0), (7, 0)), ((3, 1), (3, -1))]
        for (la, ma), (lb, mb) in pairs:
            ya = spherical_harmonic(la, ma, th, ph)
            yb = spherical_harmonic(lb, mb, th, ph)
            inner = np.sum(weights[None, :].T * np.conj(ya) * yb) * (2.0 * math.pi / phi.size)
            expected = 1.0 if (la, ma) == (lb, mb) else 0.0
            assert abs(inner - expected) < 1e-12

    def test_rejects_invalid_orders(self):
        with pytest.raises(ValueError):
            spherical_harmonic(-1, 0, 0.5, 0.0)
        with pytest.raises(ValueError):
            spherical_harmonic(2, 3, 0.5, 0.0)

    def test_refuses_orders_past_the_normalization_limit(self):
        # The normalization's relative error is at most 1.9e-11 at
        # l + |m| = 173 and 9.9e-9 at 174; from 178 it underflows to 0.
        assert HARMONIC_LM_MAX == 173
        for l, m in ((87, 86), (99, 74), (99, -74)):
            assert abs(spherical_harmonic(l, m, 1.2, 0.3)) > 0.0
        for l, m in ((87, 87), (99, 75), (99, -75), (99, 99)):
            with pytest.raises(ValueError, match=rf"l \+ \|m\| <= 173, got l={l}, m={m}$"):
                spherical_harmonic(l, m, 1.2, 0.3)


class TestAiryAi:
    def test_value_at_zero_from_gamma_quadrature(self):
        # Ai(0) = 3^{-2/3} / Gamma(2/3), Ai'(0) = -3^{-1/3} / Gamma(1/3).
        expected = 3.0 ** (-2.0 / 3.0) / oracles.gamma_two_thirds()
        assert airy_ai(0.0) == pytest.approx(expected, rel=1e-12)

    def test_derivative_at_zero_from_gamma_quadrature(self):
        expected = -(3.0 ** (-1.0 / 3.0)) / oracles.gamma_one_third()
        h = np.longdouble(1e-5)
        zero = np.longdouble(0.0)
        fd = float((airy_ai(zero + h) - airy_ai(zero - h)) / (2.0 * h))
        assert fd == pytest.approx(expected, rel=1e-9)

    def test_satisfies_defining_ode_over_full_range(self):
        # y'' = x y, checked with second differences on a dense grid that
        # spans the series, stepped and asymptotic evaluation regimes.
        x = np.linspace(-10.0, 8.0, 18001).astype(np.longdouble)
        y = airy_ai(x)
        h = x[1] - x[0]
        second = (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2
        residual = second - x[1:-1] * y[1:-1]
        envelope = np.maximum.accumulate(np.abs(y[::-1]))[::-1][1:-1]
        assert float(np.max(np.abs(residual) / envelope)) < 2e-5

    def test_monotone_decay_for_large_positive_argument(self):
        x = np.linspace(1.0, 20.0, 96)
        y = airy_ai(x)
        assert np.all(y > 0.0)
        assert np.all(np.diff(y) < 0.0)
        # Leading-order decay rate: Ai ~ exp(-2/3 x^{3/2}) / (2 sqrt(pi) x^{1/4}).
        zeta = 2.0 / 3.0 * 20.0**1.5
        leading = math.exp(-zeta) / (2.0 * math.sqrt(math.pi) * 20.0**0.25)
        assert airy_ai(20.0) == pytest.approx(leading, rel=1e-2)

    def test_oscillation_and_first_zero_location(self):
        # The first zero sits between -2.4 and -2.3; bracket it by sign change.
        assert airy_ai(-2.3) > 0.0
        assert airy_ai(-2.4) < 0.0
        x = np.linspace(-10.0, -2.0, 4001)
        signs = np.sign(airy_ai(x))
        assert np.count_nonzero(signs[1:] != signs[:-1]) == 6

    def test_scalar_and_array_round_trip(self):
        scalar = airy_ai(0.5)
        assert isinstance(scalar, np.float64)
        arr = airy_ai(np.array([0.5, -3.0]))
        assert arr.dtype == np.float64
        assert arr[0] == scalar
        long_arr = airy_ai(np.longdouble([0.5, -3.0]))
        assert long_arr.dtype == np.longdouble
        np.testing.assert_allclose(long_arr.astype(float), arr, rtol=1e-14)

    def test_rejects_arguments_outside_supported_range(self):
        for bad in (20.5, -20.5):
            with pytest.raises(ValueError, match="20"):
                airy_ai(bad)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="20"):
            airy_ai(np.array([0.0, np.nan]))

    def test_rejects_complex_arguments(self):
        # A complex argument is an error, never silently cast to its real part.
        for bad in (np.array([1.0 + 2.0j]), 1.0 + 0.0j, np.array([0.5, 1.0], dtype=complex)):
            with pytest.raises(ValueError, match="real"):
                airy_ai(bad)

    def test_station_regime_boundaries_are_continuous(self):
        # Values straddling the series/stepped and stepped/asymptotic edges
        # must agree up to the function's own slope over the tiny interval;
        # |Ai'| < 1 everywhere on these edges, so the residual bound is tight.
        eps = 1e-13
        for edge in (1.8, 9.0, -1.8, -9.0):
            lo, hi = airy_ai(edge - eps), airy_ai(edge + eps)
            assert abs(hi - lo) < 1e-11


# SHA-256 of airy_ai(u).tobytes() in float64, recorded once and never
# regenerated: the CLI digests see these values only through max/mean
# aggregates, so this pins every bit of the evaluation itself.  The
# residual-grid arguments are exactly those run_airy feeds to airy_ai; they
# contain exact station-ladder midpoints (u = -5.7, -4.5, -3.9, -2.1).
_RESIDUAL_DIGEST = "99301af3acdebb33e749e7cf36db15c54358e9ec9c395cfdb0fd2e248d27b762"
AIRY_AI_BITS = [
    (0.5, 0.0, _RESIDUAL_DIGEST),
    (0.5, 0.3, "23265359823024a5dda3209d020ee86af5b997c7dc3ad30629293d96dd1cdaa2"),
    (0.5, 1.0, _RESIDUAL_DIGEST),
    (1.0, 0.0, _RESIDUAL_DIGEST),
    (1.0, 0.3, "5df23478ba9eef92752e17b046354002b23cb8b903ba5394050dc0988d971b67"),
    (1.0, 1.0, _RESIDUAL_DIGEST),
    (2.0, 0.0, _RESIDUAL_DIGEST),
    (2.0, 0.3, "54f900db6df30e7e7895c03b202d1020737c92236781b9a16215bc17e2b8a395"),
    (2.0, 1.0, "cef93166e9fbcd779b650f9ce3558a274f2c1a415f8cfee63c275a90d341b0c4"),
]


def _bits(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "strength, t, digest", AIRY_AI_BITS, ids=[f"B={b:g}-t={t:g}" for b, t, _ in AIRY_AI_BITS]
)
def test_airy_ai_bits_on_residual_grids(strength, t, digest):
    p = AiryPacketParams(strength, atomic_units())
    u = airy_argument(p, _airy_residual_grid(p, t).points, t)
    assert _bits(airy_ai(u)) == digest


@pytest.mark.pins
def test_airy_ai_bits_on_full_range():
    x = np.linspace(-20.0, 20.0, 400001)
    assert _bits(airy_ai(x)) == "1bbca20ce6c89bc800ae8d40b543a4d890181ae38e7134f7fc03ef45af41e7c0"


def _same_bits(a, b) -> bool:
    """Equal values and signs; compares values, not the padding of longdouble."""
    return a.dtype == b.dtype and bool(np.all(a == b) and np.all(np.signbit(a) == np.signbit(b)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_airy_ai_is_pointwise(seed, dtype):
    # A subset of the arguments reads the bits of the same points in the
    # whole array, also when its widest |x| is smaller and the Maclaurin
    # loop stops earlier.  campaigns._airy_peak rests on this.
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, 4001).astype(dtype)
    whole = airy_ai(x)
    subsets = [rng.choice(x.size, size, replace=False) for size in (1, 17, 600)]
    subsets.append(np.arange(1000, 1748))
    subsets += [np.flatnonzero(np.abs(x) <= edge) for edge in (1.8, 1.0, 0.3, 0.05)]
    for index in subsets:
        assert index.size > 0
        assert _same_bits(airy_ai(x[index]), whole[index])


_KERNEL_INPUTS = {
    "random": np.random.default_rng(20260101).uniform(-9.0, 9.0, 20001),
    "largest-negative": np.array([-1.75, -0.4, 0.0, 0.9, 1.3, -2.5, 4.0, -8.9]),
    "largest-negative-series": np.array([0.2, -1.6, 1.1, -0.05]),
    "single-series": np.array([-1.3]),
    "single-station": np.array([5.83]),
    "tiny": np.array([1e-3, -7e-4, 0.0, 3e-5, -1e-3]),
    "symmetric": np.repeat(np.linspace(0.0, 8.9, 90), 2) * np.tile([1.0, -1.0], 90),
    # The Maclaurin stop needs Ai > 2^-5 at the widest series point.
    "series-edge": np.kron([1.0, -1.0], [1.8, np.nextafter(1.8, 0.0), np.nextafter(1.8, 2.0), 0.3]),
    "series-edge-only": np.array([1.8]),
    "negative-series-edge-only": np.array([-1.8]),
    "zeros": np.zeros(9),
    "signed-zeros": np.array([0.0, -0.0, -0.0]),
}


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("name", list(_KERNEL_INPUTS))
def test_airy_ai_kernels_keep_the_reference_bits(name, dtype):
    x = _KERNEL_INPUTS[name].astype(dtype)
    if dtype is np.longdouble and name == "random":
        # Use the bits below float64 resolution too.
        x = x + np.random.default_rng(7).uniform(-1e-17, 1e-17, x.size).astype(dtype)
    if dtype is np.longdouble and name == "series-edge":
        # The longdouble neighbours of +-1.8 as well as the float64 ones.
        edge = np.longdouble(1.8)
        near = np.array([np.nextafter(edge, np.longdouble(0.0)), np.nextafter(edge, np.longdouble(2.0))])
        x = np.concatenate([x, near, -near])
    assert _same_bits(airy_ai(x), oracles.airy_ai_reference(x))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
def test_airy_maclaurin_refuses_points_past_the_series_edge(dtype):
    # Its stop is exact only where Ai > 2^-5, so the widest point is checked.
    edge = np.asarray(1.8, dtype=dtype)
    specfun._airy_maclaurin(np.array([0.5, -edge, edge], dtype=dtype), np.dtype(dtype))
    for past in (np.nextafter(edge, 2.0 * edge), -np.nextafter(edge, 2.0 * edge), np.asarray(np.nan, dtype)):
        with pytest.raises(ValueError, match="1.8"):
            specfun._airy_maclaurin(np.array([0.5, past], dtype=dtype), np.dtype(dtype))


# The first four zeros of Ai, where the accuracy is relative to the envelope.
_AIRY_ZEROS = (-2.338107410459767, -4.087949444130970, -5.520559828095551, -6.786708090071759)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
def test_airy_ai_against_mpmath(dtype):
    # An oracle that shares no code or method with specfun.  The documented
    # accuracy is 1e-10 relative to |Ai| for x >= 0, and relative to the
    # envelope sqrt(Ai^2 + Bi^2) for x < 0, where Ai has its zeros.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261022)
    edges = [-20.0, -9.0, -1.8, 0.0, 1.8, 9.0, 20.0, *_AIRY_ZEROS]
    x = np.concatenate([rng.uniform(-20.0, 20.0, 240), edges]).astype(dtype)
    values = airy_ai(x)

    def exact(value):
        numerator, denominator = value.as_integer_ratio()
        return mpmath.mpf(numerator) / denominator

    worst = 0.0
    with mpmath.workdps(40):
        for point, value in zip(x, values):
            ai = mpmath.airyai(exact(point))
            scale = abs(ai) if point >= 0 else mpmath.sqrt(ai**2 + mpmath.airybi(exact(point)) ** 2)
            worst = max(worst, float(abs(exact(value) - ai) / scale))
    assert worst < 1e-10
