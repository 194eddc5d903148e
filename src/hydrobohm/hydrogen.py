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

overlap integrates conj(psi_a) psi_b by a tensor-product rule sized from
the quantum numbers of the two states (Gauss-Laguerre in r, Gauss-Legendre
in cos theta, uniform in phi) that is exact for their product, so only
rounding separates the Gram matrix of the closed forms from the identity.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import _ATOMIC_UNITS, AMPLITUDE_FLOOR, PhysicalConstants, QuantumNumbers, _above_floor, _worst, as_points
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
# Largest Gauss-Laguerre rule overlap builds: from 187 nodes numpy's laggauss
# overflows in its weight normalization and its weights come back nan.  The
# rule of <a|b> has (n_a + n_b) // 2 + 1 nodes, so overlap takes
# n_a + n_b <= 2 * 186 - 1 = 371.
OVERLAP_LAGUERRE_NODES_MAX = 186
# Bytes of Y_l^m factors overlap keeps (_harmonic_factor).  The whole n <= 10
# Gram matrix needs 3.4 MB (4,605 factors of at most 3 KB); one factor at
# l = 99 with m_a = -m_b takes 318 KB.
HARMONIC_CACHE_BYTES = 8 * 2**20


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


@functools.lru_cache(maxsize=4096)
def _atomic_state(n: int, l: int, m: int) -> EigenstateSpec:
    """The interned atomic-unit state of state(); an invalid triple raises, and is not cached."""
    return EigenstateSpec(QuantumNumbers(n, l, m), _ATOMIC_UNITS)


def state(n: int, l: int, m: int = 0, constants: PhysicalConstants | None = None) -> EigenstateSpec:
    """The bound state (n, l, m) in `constants`, atomic units when None.

    States in atomic units are interned: when n, l and m are all plain int
    and constants is None or the shared atomic_units() instance, every call
    returns the one frozen spec of that (n, l, m), built and validated on
    its first call and kept in a bounded cache of 4,096 states.  Every
    other call (numpy integers, bool, floats, other constants) builds and
    validates a new spec.  An invalid triple raises ValueError on every
    call, as does a constants that is neither None nor a PhysicalConstants.
    """
    if (constants is None or constants is _ATOMIC_UNITS) and type(n) is int and type(l) is int and type(m) is int:
        return _atomic_state(n, l, m)
    if constants is None:
        constants = _ATOMIC_UNITS
    elif not isinstance(constants, PhysicalConstants):
        raise ValueError(f"constants must be None or a PhysicalConstants, got {constants!r}")
    return EigenstateSpec(QuantumNumbers(n, l, m), constants)


def energy_level(n: int, constants: PhysicalConstants):
    """E_n = -hartree / (2 n^2); exact when the constants are exact numbers."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    return -constants.hartree / (2 * n * n)


def _radial_norm(n: int, l: int, a: float) -> float:
    log_ratio = ln_factorial(n - l - 1) - math.log(2 * n) - ln_factorial(n + l)
    return (2.0 / (n * a)) ** 1.5 * math.exp(0.5 * log_ratio)


def _radial_from_laguerre(
    n: int, l: int, a: float, rho: np.ndarray, lag: np.ndarray, envelope: np.ndarray, out=None
) -> np.ndarray:
    """R_nl at rho = 2 r / (n a), given L_{n-l-1}^{2l+1}(rho) and e^{-rho/2}.

    out, an array of rho's shape and dtype that is none of the inputs,
    receives R_nl when given.
    """
    values = np.multiply(_radial_norm(n, l, a), envelope, out=out)
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


def _rule_sizes(qa: QuantumNumbers, qb: QuantumNumbers) -> tuple[int, int, int]:
    """Nodes in r, cos(theta) and phi of the smallest rule exact for <qa|qb>.

    r^2 R_a R_b is a polynomial of degree n_a + n_b times e^{-beta r};
    conj(Y_a) Y_b is one of degree l_a + l_b in cos(theta) (if |m_a| + |m_b|
    is odd, the phi sum is exactly 0) times e^{i (m_b - m_a) phi}.  N Gauss
    nodes are exact to degree 2N - 1; N uniform phi points sum e^{i d phi}
    exactly for |d| < N.
    """
    return (qa.n + qb.n) // 2 + 1, (qa.l + qb.l) // 2 + 1, abs(qa.m - qb.m) + 1


@functools.lru_cache(maxsize=128)
def _laguerre_rule(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and log weights ln(w) + x of the size-point Gauss-Laguerre rule, on f(x) e^{-x} as a whole.

    Logs, because w underflows and e^x overflows where w e^x does not.
    """
    x, w = np.polynomial.laguerre.laggauss(size)
    return _read_only(x), _read_only(np.log(w) + x)


@functools.lru_cache(maxsize=128)
def _legendre_rule(size: int) -> tuple[np.ndarray, np.ndarray]:
    """theta = arccos(x) and the weights of the size-point Gauss-Legendre rule in x = cos(theta), as columns."""
    x, w = np.polynomial.legendre.leggauss(size)
    return _read_only(np.arccos(x)[:, None]), _read_only(w[:, None])


@functools.lru_cache(maxsize=256)
def _radial_factor(n: int, l: int, a: float, size: int, beta: float) -> np.ndarray:
    """r R_nl sqrt(w e^x / beta) at r = x / beta: a dot product of two is the rule's sum of r^2 R_a R_b."""
    x, log_w = _laguerre_rule(size)
    r = x / beta
    return _read_only(np.exp(0.5 * (log_w - math.log(beta))) * r * _radial_values(n, l, a, r))


def _byte_bounded_cache(build):
    """Memoize build, a function returning read-only arrays, in at most HARMONIC_CACHE_BYTES.

    Entries are dropped least recently used first; an array larger than
    the whole budget is returned uncached and drops nothing.  The wrapper's
    cache_clear() empties it, and cache_entries is its ordered dict, oldest
    first.
    """
    entries: OrderedDict = OrderedDict()
    held = 0

    @functools.wraps(build)
    def cached(*key):
        nonlocal held
        try:
            values = entries[key]
        except KeyError:
            values = build(*key)
            if values.nbytes <= HARMONIC_CACHE_BYTES:
                entries[key] = values
                held += values.nbytes
                while held > HARMONIC_CACHE_BYTES:
                    held -= entries.popitem(last=False)[1].nbytes
            return values
        entries.move_to_end(key)
        return values

    def cache_clear() -> None:
        nonlocal held
        entries.clear()
        held = 0

    cached.cache_clear = cache_clear
    cached.cache_entries = entries
    return cached


@_byte_bounded_cache
def _harmonic_factor(l: int, m: int, polar: int, azimuthal: int) -> np.ndarray:
    """Y_l^m sqrt(w) on polar Gauss-Legendre nodes in cos(theta) times azimuthal uniform phi nodes.

    The vdot of two is the rule's sum of conj(Y_a) Y_b.
    """
    theta, w = _legendre_rule(polar)
    step = 2.0 * math.pi / azimuthal
    phi = step * np.arange(azimuthal)[None, :]
    return _read_only(np.sqrt(step * w) * spherical_harmonic(l, m, theta, phi))


def overlap(spec_a: EigenstateSpec, spec_b: EigenstateSpec) -> complex:
    """<psi_a | psi_b> by tensor-product quadrature of the full 3D integrand.

    The rule is sized from the two states (_rule_sizes) so that it is exact
    for their product, leaving only rounding.  Both states must carry equal
    PhysicalConstants (compared by identity first, then by value);
    orthonormality of the closed forms is then a measurable outcome, not an
    input.  Rules are cached per size, and each state's factor per (state,
    a, rule), in bounded caches of read-only arrays: the Y_l^m factors in at
    most HARMONIC_CACHE_BYTES.  Nothing is cached per pair: every call
    multiplies and sums the two factors over its whole rule.

    Raises ValueError for n_a + n_b > 371, where numpy's Gauss-Laguerre
    weights overflow (OVERLAP_LAGUERRE_NODES_MAX), and, from
    spherical_harmonic, for a state with l + |m| > 173.
    """
    constants = spec_a.constants
    if constants is not spec_b.constants and constants != spec_b.constants:
        raise ValueError("overlap requires both states to use the same constants")
    qa, qb = spec_a.qn, spec_b.qn
    a = float(constants.bohr_radius)
    size, polar, azimuthal = _rule_sizes(qa, qb)
    if size > OVERLAP_LAGUERRE_NODES_MAX:
        raise ValueError(
            f"overlap supports n_a + n_b <= {2 * OVERLAP_LAGUERRE_NODES_MAX - 1}, got {qa.n} + {qb.n}"
        )
    beta = (1.0 / qa.n + 1.0 / qb.n) / a
    radial = np.dot(_radial_factor(qa.n, qa.l, a, size, beta), _radial_factor(qb.n, qb.l, a, size, beta))
    angular = np.vdot(
        _harmonic_factor(qa.l, qa.m, polar, azimuthal), _harmonic_factor(qb.l, qb.m, polar, azimuthal)
    )
    return complex(radial * angular)
