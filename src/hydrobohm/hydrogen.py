"""Closed-form hydrogen bound states and their verification quantities.

The radial factor is

    R_nl(r) = sqrt((2/(n a))^3 (n-l-1)! / (2n (n+l)!))
              e^{-rho/2} rho^l L_{n-l-1}^{2l+1}(rho),      rho = 2 r / (n a),

with a = hbar^2/(m coulomb) the Bohr radius, and the full eigenfunction is
psi_nlm = R_nl(r) Y_l^m(theta, phi).  Energies are E_n = -hartree / (2 n^2).

radial_peaks locates the maximum of P_nl = r^2 R_nl^2 for circular states
(l = n - 1) only, the orbits whose radii n^2 a the Bohr model predicts.

Derivatives of R are assembled by the product rule from the Laguerre
derivative identity, never from the radial equation itself, so residual and
flatness checks downstream remain genuine tests rather than tautologies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import AMPLITUDE_FLOOR, PhysicalConstants, QuantumNumbers, _above_floor, _worst, as_points, atomic_units
from .specfun import laguerre, laguerre_derivative, ln_factorial, spherical_harmonic

__all__ = [
    "EigenstateSpec",
    "state",
    "energy_level",
    "radial_R",
    "radial_R_derivatives",
    "psi",
    "node_mask",
    "schrodinger_residual",
    "radial_distribution",
    "radial_peaks",
    "overlap",
]

PEAK_SCAN_PER_DECADE = 1000
PEAK_REL_TOL = 1e-10
OVERLAP_RADIAL_POINTS = 240
OVERLAP_THETA_POINTS = 32
OVERLAP_PHI_POINTS = 32


@dataclass(frozen=True)
class EigenstateSpec:
    """A bound state (n, l, m) together with the unit system it lives in."""

    qn: QuantumNumbers
    constants: PhysicalConstants

    @property
    def n(self) -> int:
        return self.qn.n

    @property
    def l(self) -> int:
        return self.qn.l

    @property
    def m(self) -> int:
        return self.qn.m


def state(n: int, l: int, m: int = 0, constants: PhysicalConstants | None = None) -> EigenstateSpec:
    return EigenstateSpec(QuantumNumbers(n, l, m), constants or atomic_units())


def energy_level(n: int, constants: PhysicalConstants):
    """E_n = -hartree / (2 n^2); exact when the constants are exact numbers."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return -constants.hartree / (2 * n * n)


def _radial_norm(n: int, l: int, a: float) -> float:
    log_ratio = ln_factorial(n - l - 1) - math.log(2 * n) - ln_factorial(n + l)
    return (2.0 / (n * a)) ** 1.5 * math.exp(0.5 * log_ratio)


def _radial_from_laguerre(n: int, l: int, a: float, rho: np.ndarray, lag: np.ndarray, envelope: np.ndarray) -> np.ndarray:
    """R_nl at rho = 2 r / (n a), given L_{n-l-1}^{2l+1}(rho) and e^{-rho/2}."""
    values = _radial_norm(n, l, a) * envelope
    values *= rho**l
    values *= lag
    return values


def _radial_values(n: int, l: int, a: float, r: np.ndarray) -> np.ndarray:
    """R_nl(r) for the Bohr radius a, from plain numbers."""
    rho = (2.0 / (n * a)) * r
    return _radial_from_laguerre(n, l, a, rho, laguerre(n - l - 1, 2 * l + 1, rho), np.exp(-rho / 2))


def radial_R(spec: EigenstateSpec, r) -> np.ndarray:
    """Radial factor R_nl(r) for r > 0, dtype-preserving."""
    return _radial_values(spec.n, spec.l, float(spec.constants.bohr_radius), np.asarray(r))


def radial_R_derivatives(spec: EigenstateSpec, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, dR/dr, d2R/dr2) by the product rule on e^{-rho/2} rho^l L(rho)."""
    r = np.asarray(r)
    n, l = spec.n, spec.l
    a = float(spec.constants.bohr_radius)
    c = 2.0 / (n * a)
    rho = c * r
    lag = laguerre(n - l - 1, 2 * l + 1, rho)
    lag1, lag2 = (laguerre_derivative(n - l - 1, 2 * l + 1, rho, order=j) for j in (1, 2))
    envelope = np.exp(-rho / 2)
    p_l = rho**l
    p_lm1 = l * rho ** (l - 1) if l >= 1 else np.zeros_like(rho)
    p_lm2 = l * (l - 1) * rho ** (l - 2) if l >= 2 else np.zeros_like(rho)
    f0 = envelope * p_l * lag
    f1 = envelope * ((p_lm1 - p_l / 2) * lag + p_l * lag1)
    f2 = envelope * (
        (p_l / 4 - p_lm1 + p_lm2) * lag + (2 * p_lm1 - p_l) * lag1 + p_l * lag2
    )
    norm = _radial_norm(n, l, a)
    return norm * f0, norm * c * f1, norm * c * c * f2


def psi(spec: EigenstateSpec, r, theta, phi) -> np.ndarray:
    """Stationary eigenfunction R_nl(r) Y_l^m(theta, phi); broadcasts."""
    return radial_R(spec, r) * spherical_harmonic(spec.l, spec.m, theta, phi)


def node_mask(spec: EigenstateSpec, r, floor: float = AMPLITUDE_FLOOR) -> np.ndarray:
    """True where |R_nl| < floor * max |R_nl| on the sample set, at every point if that max is 0.

    Masked points sit too close to radial nodes (or too deep in the
    exponential tail) for amplitude-dividing quantities to be evaluated.
    """
    return ~_above_floor(np.abs(np.asarray(radial_R(spec, r), dtype=float)), floor)


def schrodinger_residual(spec: EigenstateSpec, grid, energy=None) -> float:
    """Max of |(T + V - E) R| / (|E_n| max |R|) over unmasked grid points.

    `energy` overrides E_n; useful for checking that the residual actually
    responds to a wrong eigenvalue.
    """
    r = as_points(grid)
    constants = spec.constants
    hb, mass, coul = float(constants.hbar), float(constants.mass), float(constants.coulomb)
    e_n = float(energy_level(spec.n, constants) if energy is None else energy)
    big_r, d1, d2 = radial_R_derivatives(spec, r)
    kinetic = -(hb * hb / (2.0 * mass)) * (d2 + 2.0 * d1 / r - spec.l * (spec.l + 1) * big_r / r**2)
    residual = kinetic - (coul / r) * big_r - e_n * big_r
    magnitude = np.abs(big_r)
    return float(_worst(residual, _above_floor(magnitude, AMPLITUDE_FLOOR)) / (abs(e_n) * magnitude.max()))


def radial_distribution(spec: EigenstateSpec, grid) -> np.ndarray:
    """P_nl(r) = r^2 R_nl(r)^2 at the grid points."""
    r = as_points(grid)
    return r**2 * radial_R(spec, r) ** 2


def _wide(lo: float, hi: float) -> bool:
    """The bisection of radial_peaks continues while this holds."""
    return hi - lo > PEAK_REL_TOL * hi


def _peak_scan_range(spec: EigenstateSpec) -> tuple[float, float, int]:
    """(r_lo, r_hi, num) of the logarithmic scan on which radial_peaks brackets sign changes."""
    a = float(spec.constants.bohr_radius)
    r_lo = 1e-3 * a
    r_hi = 4.0 * spec.n**2 * a
    decades = math.log10(r_hi / r_lo)
    return r_lo, r_hi, max(int(decades * PEAK_SCAN_PER_DECADE), 16)


def _peak_scan_window(r_lo: float, r_hi: float, num: int, lo: int, hi: int) -> np.ndarray:
    """Points [lo, hi) of np.geomspace(r_lo, r_hi, num), 0 <= lo < hi <= num, r_lo and r_hi > 0.

    This is geomspace's own arithmetic: log10 of both ends, index times
    step plus start, 10 to that power, and the exact ends in the first and
    last place.  Every point depends on its index alone, so a window holds
    the same floats as the same slice of the full scan.
    """
    log_lo, log_hi = np.log10([r_lo, r_hi])
    step = (log_hi - log_lo) / (num - 1)
    exponents = np.arange(lo, hi, dtype=float)
    exponents *= step
    exponents += log_lo
    points = np.power(10.0, exponents)
    if lo == 0:
        points[0] = r_lo
    if hi == num:
        points[-1] = r_hi
    return points


def _nearest_scan_index(r_lo: float, r_hi: float, num: int, r: float) -> int:
    """About the index of the scan point nearest r, clipped to the scan."""
    step = math.log10(r_hi / r_lo) / (num - 1)
    return min(max(round(math.log10(r / r_lo) / step), 0), num - 1)


def _circular_peak(spec: EigenstateSpec) -> np.ndarray:
    """radial_peaks of a state with n - l - 1 = 0, from a few scan points around n (l + 1) a.

    Here the slope sign is (1 + l) - rho/2, linear in r, and rounding is
    monotone, so it never increases along the scan and has at most one
    + -> - pair.  A window centred on the zero widens until its first sign
    is positive and its last negative, or it meets an end of the scan; no
    pair then lies outside it.  The bisection gives the same bits as the
    full-scan, midpoint-tree peak finder kept as the test oracle
    (scan_peaks in tests/oracles.py): the same midpoints, stop and IEEE
    operations.
    """
    r_lo, r_hi, num = _peak_scan_range(spec)
    c = 2.0 / (spec.n * float(spec.constants.bohr_radius))
    top = 1 + spec.l
    centre = _nearest_scan_index(r_lo, r_hi, num, 2 * top / c)
    half = 2
    while True:
        lo, hi = max(centre - half, 0), min(centre + half + 1, num)
        scan = _peak_scan_window(r_lo, r_hi, num, lo, hi).tolist()
        signs = [top - c * r / 2 for r in scan]
        if (lo == 0 or signs[0] > 0) and (hi == num or signs[-1] < 0):
            break
        half *= 2
    top_i = next((i for i in range(len(scan) - 1) if signs[i] > 0 and signs[i + 1] < 0), None)
    if top_i is None:
        return np.asarray([])
    lo_r, hi_r = scan[top_i], scan[top_i + 1]
    while _wide(lo_r, hi_r):
        mid = 0.5 * (lo_r + hi_r)
        sign = top - c * mid / 2
        if sign > 0:
            lo_r = mid
        elif sign < 0:
            hi_r = mid
        else:
            lo_r = hi_r = mid
    return np.asarray([0.5 * (lo_r + hi_r)])


def radial_peaks(spec: EigenstateSpec) -> np.ndarray:
    """Location of the maximum of P_nl for a circular state, as a one-point array.

    Only circular states (n - l - 1 = 0) are supported; any other state
    raises ValueError.  There L_0^{2l+1} = 1, so dP/dr is
    2 r N^2 e^{-rho} rho^{2l} (1 + l - rho/2), and only the sign of the
    last factor, linear in r, is read.  Its + -> - change is bracketed on
    a logarithmic scan of [10^-3 a, 4 n^2 a] (PEAK_SCAN_PER_DECADE samples
    per decade), of which only a short window around n (l + 1) a is built,
    and polished by bisection in Python floats until the bracket is
    narrower than PEAK_REL_TOL relative to the position (_circular_peak).
    No normalization, power or exponential is evaluated, so nothing
    overflows for large n.
    """
    if spec.n - spec.l - 1 != 0:
        raise ValueError(
            f"radial_peaks supports only circular states (l = n - 1), got n={spec.n}, l={spec.l}"
        )
    return _circular_peak(spec)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class _OverlapRule(NamedTuple):
    """Read-only quadrature arrays shared by every overlap."""

    unit_r: np.ndarray  # radial Gauss-Legendre nodes mapped to [0, 1]
    weights: np.ndarray  # their weights on [-1, 1]
    theta: np.ndarray  # arccos of the cos(theta) nodes, as a column
    phi: np.ndarray  # uniform phi nodes, as a row
    w_x: np.ndarray  # cos(theta) weights, as a column


@functools.cache
def _overlap_rule() -> _OverlapRule:
    """The overlap quadrature rule, built on the first call, never at import."""
    nodes, weights = np.polynomial.legendre.leggauss(OVERLAP_RADIAL_POINTS)
    x_nodes, w_x = np.polynomial.legendre.leggauss(OVERLAP_THETA_POINTS)
    theta = np.arccos(x_nodes)
    phi = 2.0 * math.pi * np.arange(OVERLAP_PHI_POINTS) / OVERLAP_PHI_POINTS
    arrays = (0.5 * (nodes + 1.0), weights, theta[:, None], phi[None, :], w_x[:, None])
    return _OverlapRule(*(_read_only(values) for values in arrays))


@functools.lru_cache(maxsize=256)
def _overlap_radial(n: int, l: int, a: float, r_max: float) -> np.ndarray:
    """R_nl on the radial nodes of [0, r_max]; keyed on plain numbers."""
    return _read_only(_radial_values(n, l, a, _overlap_rule().unit_r * r_max))


@functools.lru_cache(maxsize=128)
def _overlap_angular(l: int, m: int) -> np.ndarray:
    """Y_l^m on the (theta, phi) product grid of the overlap rule."""
    rule = _overlap_rule()
    return _read_only(spherical_harmonic(l, m, rule.theta, rule.phi))


def overlap(spec_a: EigenstateSpec, spec_b: EigenstateSpec) -> complex:
    """<psi_a | psi_b> by tensor-product quadrature of the full 3D integrand.

    Gauss-Legendre in r on [0, 30 a max(n_a, n_b)] and in cos(theta),
    uniform trapezoid in phi.  Both states must share one PhysicalConstants
    instance; orthonormality of the closed forms is then a measurable
    outcome, not an input.  The quadrature rule is built once per process,
    on the first call, and each state's R_nl and Y_l^m on it are computed
    once and reused (bounded caches of read-only arrays).
    """
    if spec_a.constants != spec_b.constants:
        raise ValueError("overlap requires both states to use the same constants")
    a = float(spec_a.constants.bohr_radius)
    r_max = 30.0 * a * max(spec_a.n, spec_b.n)
    rule = _overlap_rule()
    r = rule.unit_r * r_max
    w_r = 0.5 * r_max * rule.weights
    w_phi = 2.0 * math.pi / OVERLAP_PHI_POINTS

    radial = (
        w_r * r**2 * _overlap_radial(spec_a.n, spec_a.l, a, r_max)
        * _overlap_radial(spec_b.n, spec_b.l, a, r_max)
    )
    angular = (
        np.conj(_overlap_angular(spec_a.l, spec_a.m))
        * _overlap_angular(spec_b.l, spec_b.m)
        * rule.w_x
        * w_phi
    )
    return complex(radial.sum() * angular.sum())
