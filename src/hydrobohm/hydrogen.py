"""Closed-form hydrogen bound states and their verification quantities.

The radial factor is

    R_nl(r) = sqrt((2/(n a))^3 (n-l-1)! / (2n (n+l)!))
              e^{-rho/2} rho^l L_{n-l-1}^{2l+1}(rho),      rho = 2 r / (n a),

with a = hbar^2/(m coulomb) the Bohr radius, and the full eigenfunction is
psi_nlm = R_nl(r) Y_l^m(theta, phi).  Energies are E_n = -hartree / (2 n^2).

Derivatives of R are assembled by the product rule from the Laguerre
derivative identity, never from the radial equation itself, so residual and
flatness checks downstream remain genuine tests rather than tautologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalConstants, QuantumNumbers, as_points, atomic_units
from .specfun import laguerre, laguerre_derivative, ln_factorial, spherical_harmonic

__all__ = [
    "EigenstateSpec",
    "RadialProfile",
    "state",
    "energy_level",
    "radial_R",
    "radial_R_derivatives",
    "psi",
    "node_mask",
    "schrodinger_residual",
    "radial_profile",
    "radial_distribution",
    "radial_peaks",
    "overlap",
]

NODE_MASK_FLOOR = 1e-12


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


@dataclass(frozen=True)
class RadialProfile:
    """Samples of a radial quantity; meaning is one of R, P, dP_dr."""

    coords: np.ndarray
    values: np.ndarray
    meaning: str


def state(n: int, l: int, m: int = 0, constants: PhysicalConstants | None = None) -> EigenstateSpec:
    return EigenstateSpec(QuantumNumbers(n, l, m), constants or atomic_units())


def energy_level(n: int, constants: PhysicalConstants):
    """E_n = -hartree / (2 n^2); exact when the constants are exact numbers."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return -constants.hartree / (2 * n * n)


def _radial_norm(spec: EigenstateSpec) -> float:
    n, l = spec.n, spec.l
    a = float(spec.constants.bohr_radius)
    log_ratio = ln_factorial(n - l - 1) - math.log(2 * n) - ln_factorial(n + l)
    return (2.0 / (n * a)) ** 1.5 * math.exp(0.5 * log_ratio)


def _laguerre_with_derivatives(spec: EigenstateSpec, rho):
    """L, L' and L'' of the radial polynomial L_{n-l-1}^{2l+1} at rho."""
    k, alpha = spec.n - spec.l - 1, 2 * spec.l + 1
    lag = laguerre(k, alpha, rho)
    lag1 = laguerre_derivative(k, alpha, rho) if k >= 1 else np.zeros_like(rho)
    lag2 = laguerre_derivative(k, alpha, rho, order=2) if k >= 2 else np.zeros_like(rho)
    return lag, lag1, lag2


def radial_R(spec: EigenstateSpec, r) -> np.ndarray:
    """Radial factor R_nl(r) for r > 0, dtype-preserving."""
    r = np.asarray(r)
    rho = (2.0 / (spec.n * float(spec.constants.bohr_radius))) * r
    lag = laguerre(spec.n - spec.l - 1, 2 * spec.l + 1, rho)
    return _radial_norm(spec) * np.exp(-rho / 2) * rho**spec.l * lag


def radial_R_derivatives(spec: EigenstateSpec, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, dR/dr, d2R/dr2) by the product rule on e^{-rho/2} rho^l L(rho)."""
    r = np.asarray(r)
    n, l = spec.n, spec.l
    c = 2.0 / (n * float(spec.constants.bohr_radius))
    rho = c * r
    lag, lag1, lag2 = _laguerre_with_derivatives(spec, rho)
    envelope = np.exp(-rho / 2)
    p_l = rho**l
    p_lm1 = l * rho ** (l - 1) if l >= 1 else np.zeros_like(rho)
    p_lm2 = l * (l - 1) * rho ** (l - 2) if l >= 2 else np.zeros_like(rho)
    f0 = envelope * p_l * lag
    f1 = envelope * ((p_lm1 - p_l / 2) * lag + p_l * lag1)
    f2 = envelope * (
        (p_l / 4 - p_lm1 + p_lm2) * lag + (2 * p_lm1 - p_l) * lag1 + p_l * lag2
    )
    norm = _radial_norm(spec)
    return norm * f0, norm * c * f1, norm * c * c * f2


def psi(spec: EigenstateSpec, r, theta, phi) -> np.ndarray:
    """Stationary eigenfunction R_nl(r) Y_l^m(theta, phi); broadcasts."""
    return radial_R(spec, r) * spherical_harmonic(spec.l, spec.m, theta, phi)


def node_mask(spec: EigenstateSpec, r, floor: float = NODE_MASK_FLOOR) -> np.ndarray:
    """True where |R_nl| < floor * max |R_nl| on the sample set.

    Masked points sit too close to radial nodes (or too deep in the
    exponential tail) for amplitude-dividing quantities to be evaluated.
    """
    values = np.abs(np.asarray(radial_R(spec, r), dtype=float))
    peak = values.max() if values.size else 0.0
    return values < floor * peak


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
    keep = ~node_mask(spec, r)
    scale = abs(e_n) * np.abs(big_r).max()
    return float(np.abs(residual[keep]).max() / scale)


def _distribution_slope(spec: EigenstateSpec, r) -> np.ndarray:
    """dP/dr = 2 r R (R + r dR/dr); also the scalar probe of radial_peaks."""
    big_r, d1, _ = radial_R_derivatives(spec, r)
    return 2.0 * r * big_r * (big_r + r * d1)


def radial_profile(spec: EigenstateSpec, grid, quantity: str = "P") -> RadialProfile:
    """Radial curve for one state: R, the distribution P = r^2 R^2, or dP/dr."""
    r = as_points(grid)
    if quantity == "R":
        values = radial_R(spec, r)
    elif quantity == "P":
        values = r**2 * radial_R(spec, r) ** 2
    elif quantity == "dP_dr":
        values = _distribution_slope(spec, r)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return RadialProfile(coords=r, values=np.asarray(values), meaning=quantity)


def radial_distribution(spec: EigenstateSpec, grid) -> RadialProfile:
    """P_nl(r) = r^2 R_nl(r)^2 on the grid."""
    return radial_profile(spec, grid, "P")


def radial_peaks(
    spec: EigenstateSpec,
    r_hi: float | None = None,
    points_per_decade: int = 1000,
    rel_tol: float = 1e-10,
) -> np.ndarray:
    """Locations of the strict local maxima of P_nl, in increasing order.

    Sign changes of the analytic dP/dr are bracketed on a logarithmic scan
    (points_per_decade samples per decade) and polished by bisection until
    the bracket is narrower than rel_tol relative to the position.
    """
    a = float(spec.constants.bohr_radius)
    r_lo = 1e-3 * a
    if r_hi is None:
        r_hi = 4.0 * spec.n**2 * a
    decades = math.log10(r_hi / r_lo)
    scan = np.geomspace(r_lo, r_hi, max(int(decades * points_per_decade), 16))
    slope = _distribution_slope(spec, scan)
    peaks = []
    sign = np.sign(slope)
    for i in np.nonzero((sign[:-1] > 0) & (sign[1:] < 0))[0]:
        lo, hi = scan[i], scan[i + 1]
        while hi - lo > rel_tol * hi:
            mid = 0.5 * (lo + hi)
            s = _distribution_slope(spec, np.asarray(mid))
            if s > 0:
                lo = mid
            elif s < 0:
                hi = mid
            else:
                lo = hi = mid
        peaks.append(0.5 * (lo + hi))
    return np.asarray(peaks)


def overlap(
    spec_a: EigenstateSpec,
    spec_b: EigenstateSpec,
    radial_points: int = 240,
    theta_points: int = 32,
    phi_points: int = 32,
    r_max: float | None = None,
) -> complex:
    """<psi_a | psi_b> by tensor-product quadrature of the full 3D integrand.

    Gauss-Legendre in r and in cos(theta), uniform trapezoid in phi.  Both
    states must share one PhysicalConstants instance; orthonormality of the
    closed forms is then a measurable outcome, not an input.
    """
    if spec_a.constants != spec_b.constants:
        raise ValueError("overlap requires both states to use the same constants")
    a = float(spec_a.constants.bohr_radius)
    if r_max is None:
        r_max = 30.0 * a * max(spec_a.n, spec_b.n)
    nodes, weights = np.polynomial.legendre.leggauss(radial_points)
    r = 0.5 * (nodes + 1.0) * r_max
    w_r = 0.5 * r_max * weights
    x_nodes, w_x = np.polynomial.legendre.leggauss(theta_points)
    theta = np.arccos(x_nodes)
    phi = 2.0 * math.pi * np.arange(phi_points) / phi_points
    w_phi = 2.0 * math.pi / phi_points

    radial = w_r * r**2 * radial_R(spec_a, r) * radial_R(spec_b, r)
    th = theta[:, None]
    ph = phi[None, :]
    angular = (
        np.conj(spherical_harmonic(spec_a.l, spec_a.m, th, ph))
        * spherical_harmonic(spec_b.l, spec_b.m, th, ph)
        * w_x[:, None]
        * w_phi
    )
    return complex(radial.sum() * angular.sum())
