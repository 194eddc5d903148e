"""Madelung variables and the quantum-potential machinery around them.

A complex field Psi = A e^{iS/hbar} sampled along a 1D grid line is held as a
PolarForm.  The operations here compute the Bohm potential

    V_Bohm = -(hbar^2 / 2m) lap(A) / A            (strict amplitude form)
    V_Bohm = -(hbar^2 / 2m) lap(psi) / psi        (full-field form; equal for
                                                   real or m = 0 fields)

the quantum potential V_Q = V + V_Bohm, the probability current, and the
pointwise residuals of the quantum Hamilton-Jacobi, continuity and Euler
equations.  For hydrogen eigenstates the full-field form is available in
closed form (analytic radial derivatives plus the exact angular eigenvalue),
which is what makes V_Q = E_n a numerically testable statement: the
finite-difference path provides the independent oracle it is tested against.
Amplitude zeros are handled by a validity mask; difference stencils never
straddle masked points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PhysicalConstants, as_points
from .hydrogen import NODE_MASK_FLOOR, EigenstateSpec, _radial_from_laguerre
from .specfun import _laguerre_pair

__all__ = [
    "PolarForm",
    "PotentialProfile",
    "AMPLITUDE_FLOOR",
    "decompose",
    "coulomb_profile",
    "bohm_potential_analytic",
    "bohm_potential_fd",
    "quantum_potential",
    "quantum_acceleration",
    "probability_current",
    "hj_residual",
    "hj_residual_field",
    "continuity_residual",
    "euler_residual",
]

AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class PolarForm:
    """Amplitude and unwrapped action phase along one Cartesian grid line.

    amplitude_d2, when given, is the analytic d2A/dx2; the residuals then use
    it in place of the second-difference stencil.
    """

    coords: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray
    valid: np.ndarray
    amplitude_d2: np.ndarray | None = None


@dataclass(frozen=True)
class PotentialProfile:
    """Potential samples; node_mask is True where the value is not usable."""

    coords: np.ndarray
    values: np.ndarray
    node_mask: np.ndarray


def _uniform_spacing(coords: np.ndarray) -> float:
    if coords.size < 5:
        raise ValueError("need at least 5 grid points for interior stencils")
    steps = np.diff(coords)
    h = float(steps.mean())
    if np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise ValueError("finite differences require a uniform grid")
    return h


def _above_floor(magnitude: np.ndarray, floor: float) -> np.ndarray:
    """|f| >= floor * max|f|; no point clears the floor when the peak is 0."""
    peak = magnitude.max() if magnitude.size else 0.0
    if peak > 0.0:
        return magnitude >= floor * peak
    return np.zeros(magnitude.shape, bool)


def _interior(valid: np.ndarray) -> np.ndarray:
    """Points whose full 3-point stencil lies inside the valid set."""
    ok = valid.copy()
    ok[0] = False
    ok[-1] = False
    ok[1:-1] &= valid[:-2] & valid[2:]
    return ok


def _worst(residual: np.ndarray, usable: np.ndarray) -> float:
    """Largest |residual| over the usable points."""
    if not usable.any():
        raise ValueError("no usable interior points")
    return float(np.abs(residual[usable]).max())


def _first_weights(coords: np.ndarray) -> tuple:
    """Geometry of _central_first's stencil: h1^2, h2^2, h2^2 - h1^2, h1 h2 (h1 + h2)."""
    h1 = coords[1:-1] - coords[:-2]
    h2 = coords[2:] - coords[1:-1]
    denominator = h1 * h2
    denominator *= h1 + h2
    h1 *= h1
    h2 *= h2
    return h1, h2, h2 - h1, denominator


def _central_first(values: np.ndarray, coords: np.ndarray, weights: tuple | None = None) -> np.ndarray:
    """Second-order first derivative on a possibly nonuniform grid.

    A caller differentiating several fields on one grid passes
    _first_weights(coords) once instead of having each call rebuild it.
    """
    out = np.full(values.shape, np.nan, dtype=np.result_type(values, coords, float))
    h1_sq, h2_sq, h_diff, denominator = weights if weights is not None else _first_weights(coords)
    # (v+ h1^2 - v- h2^2 + v0 (h2^2 - h1^2)) / (h1 h2 (h1 + h2)), left to right.
    numerator = values[2:] * h1_sq
    numerator -= values[:-2] * h2_sq
    numerator += values[1:-1] * h_diff
    numerator /= denominator
    out[1:-1] = numerator
    return out


def _central_second(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    out = np.full(values.shape, np.nan, dtype=np.result_type(values, coords, float))
    h1 = coords[1:-1] - coords[:-2]
    h2 = coords[2:] - coords[1:-1]
    out[1:-1] = 2.0 * (
        values[:-2] * h2 - values[1:-1] * (h1 + h2) + values[2:] * h1
    ) / (h1 * h2 * (h1 + h2))
    return out


def decompose(
    values,
    grid,
    constants: PhysicalConstants,
    amplitude_floor: float = AMPLITUDE_FLOOR,
) -> PolarForm:
    """Split complex samples into amplitude and unwrapped action phase.

    The phase is unwrapped independently on each contiguous run of points
    whose amplitude clears the floor (by _unwrap, np.unwrap bit for bit);
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
        phase[start:stop] = hbar * _unwrap(raw[start:stop])
    jump = (valid[:-1] & valid[1:]) & (np.abs(np.diff(phase)) > 0.5 * math.pi * hbar)
    valid[:-1] &= ~jump
    valid[1:] &= ~jump
    phase = np.where(valid, phase, 0.0)
    return PolarForm(coords=coords, amplitude=amplitude, phase=phase, valid=valid)


def _unwrap(angles: np.ndarray) -> np.ndarray:
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


def _runs(valid: np.ndarray):
    edges = np.flatnonzero(np.diff(valid.astype(np.int8)))
    bounds = np.concatenate([[0], edges + 1, [valid.size]])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if valid[start]:
            yield int(start), int(stop)


def coulomb_profile(constants: PhysicalConstants, grid) -> PotentialProfile:
    """Attractive external potential V(r) = -coulomb / r."""
    r = as_points(grid)
    values = -float(constants.coulomb) / r
    return PotentialProfile(coords=r, values=values, node_mask=np.zeros(r.shape, bool))


def bohm_potential_analytic(spec: EigenstateSpec, grid) -> PotentialProfile:
    """Closed-form Bohm potential of a hydrogen eigenstate on the grid.

    The whole eigenfunction is divided (exact angular eigenvalue
    -l(l+1)/r^2), so the result is independent of both angles and of m.
    This is the single-l call of _bohm_shell, which documents the
    assembly.  Alone, a state runs all three of its recurrences: the L''
    chain it shares with (n, l + 1) in a shell walk is run for it here.
    """
    r = as_points(grid)
    ((values, usable),) = _bohm_shell(spec.n, (spec.l,), spec.constants, r)
    return PotentialProfile(coords=r, values=values, node_mask=~usable)


def _bohm_shell(n: int, ls, constants: PhysicalConstants, r: np.ndarray):
    """Analytic Bohm potential of (n, l) at r and its usable points, for each l in ls.

    Yields (values, usable) in the order of ls, values NaN where a point is
    not usable.  The radial part is assembled in the rho^l-factored form

        lap(psi)/psi = c^2 [ 2(l+1)/rho (L'/L - 1/2) + 1/4 - L'/L + L''/L ],

    c = 2/(n a), which cancels the l/r^2 growth symbolically and keeps the
    evaluation well conditioned down to small r.  With k = n - l - 1, L,
    L' and L'' are L_k^{2l+1}, -L_{k-1}^{2l+2} and L_{k-2}^{2l+3}: three
    separate recurrences per state, none of them the Laguerre ODE, so the
    identity V_Q = E_n stays a nontrivial numerical statement about them.
    All l of one shell share rho and e^{-rho/2}.  The chain that
    gives L_{k-1}^{2l+3}, the L of (n, l + 1), passes L_{k-2}^{2l+3} on
    its way (_laguerre_pair), so when l follows l + 1 in ls its L'' costs
    no recurrence: all n values of l, walked downward, take 2n - 1
    recurrences.  A point is usable where R_nl, assembled from the L
    already in hand, clears NODE_MASK_FLOOR of its peak (_above_floor);
    the points it leaves out are those node_mask flags.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    a = float(constants.bohr_radius)
    c = 2.0 / (n * a)
    rho = c * r
    envelope = np.exp(-rho / 2)
    zeros = np.zeros_like(rho)
    scale = c * c
    coefficient = -(hb * hb / (2.0 * mass))
    shared_l, shared = None, None  # l of the last chain and its L_{k-1}
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
        usable = _above_floor(np.abs(_radial_from_laguerre(n, l, a, rho, lag, envelope)), NODE_MASK_FLOOR)
        safe_lag = np.where(usable, lag, 1.0)
        ratio1 = lag1 / safe_lag
        ratio2 = lag2 / safe_lag
        lap_ratio = scale * (2.0 * (l + 1) / rho * (ratio1 - 0.5) + 0.25 - ratio1 + ratio2)
        yield np.where(usable, coefficient * lap_ratio, np.nan), usable


def bohm_potential_fd(
    values,
    grid,
    constants: PhysicalConstants,
    amplitude_floor: float = AMPLITUDE_FLOOR,
) -> PotentialProfile:
    """Bohm potential along a uniform Cartesian grid line, by second differences.

    This is the plain 1D Laplacian.  Points below the amplitude floor, and
    points whose stencil touches one, are masked: the 0/0 at amplitude
    zeros is analytically finite but numerically ill conditioned.
    """
    coords = as_points(grid)
    field = np.asarray(values)
    if field.shape != coords.shape:
        raise ValueError("field and grid shapes differ")
    h = _uniform_spacing(coords)
    masked = _interior(_above_floor(np.abs(field), amplitude_floor))
    np.logical_not(masked, out=masked)
    lap = np.empty_like(field)
    center, plus, minus, out = field[1:-1], field[2:], field[:-2], lap[1:-1]
    # (f+ - 2 f0 + f-) / h^2 at the interior points, built in one buffer.
    np.multiply(2.0, center, out=out)
    np.subtract(plus, out, out=out)
    out += minus
    out /= h * h
    hb, mass = float(constants.hbar), float(constants.mass)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= center
    ratio = out.real
    ratio *= -(hb * hb / (2.0 * mass))
    # The two ends have no stencil and are always masked.  The returned
    # array is allocated last, once the temporaries are freed.  Returning
    # the work buffer itself made an airy-packet pass take about 40% more
    # page faults and run slower.
    potential = np.where(masked, np.nan, lap.real)
    return PotentialProfile(coords=coords, values=potential, node_mask=masked)


def _radial_fd_bohm(
    values: np.ndarray, r: np.ndarray, h: float, constants: PhysicalConstants, l: int, lo: int, hi: int
) -> np.ndarray:
    """Bohm potential of R_nl Y_lm at the points [lo, hi) of a uniform radial grid.

    Fourth-order five-point stencils, with the centrifugal term added
    analytically:

        R'' = (-R+2 + 16 R+1 - 30 R0 + 16 R-1 - R-2) / 12h^2
        R'  = (-R+2 + 8 R+1 - 8 R-1 + R-2) / 12h
        V_Bohm = -(hbar^2/2m) (R'' + 2 R'/r - l(l+1) R/r^2) / R

    each evaluated left to right.  The window reads two points beyond each
    end, so 2 <= lo and hi <= values.size - 2.  Nothing is masked here.
    """
    m2, m1, center, p1, p2 = (values[lo + s : hi + s] for s in range(-2, 3))
    r = r[lo:hi]
    term = np.empty_like(center)
    d2 = np.negative(p2)
    d2 += np.multiply(16.0, p1, out=term)
    d2 -= np.multiply(30.0, center, out=term)
    d2 += np.multiply(16.0, m1, out=term)
    d2 -= m2
    d2 /= 12.0 * h * h
    d1 = np.negative(p2)
    d1 += np.multiply(8.0, p1, out=term)
    d1 -= np.multiply(8.0, m1, out=term)
    d1 += m2
    d1 /= 12.0 * h
    d1 *= 2.0
    d1 /= r
    d2 += d1
    np.multiply(l * (l + 1), center, out=term)
    term /= np.square(r, out=d1)
    d2 -= term
    with np.errstate(divide="ignore", invalid="ignore"):
        d2 /= center
    hb, mass = float(constants.hbar), float(constants.mass)
    d2 *= -(hb * hb / (2.0 * mass))
    return d2


def quantum_potential(external: PotentialProfile, bohm: PotentialProfile) -> PotentialProfile:
    """V_Q = V + V_Bohm on a shared grid; masks combine."""
    if not np.array_equal(external.coords, bohm.coords):
        raise ValueError("potential profiles live on different grids")
    return PotentialProfile(bohm.coords, external.values + bohm.values, external.node_mask | bohm.node_mask)


def quantum_acceleration(quantum: PotentialProfile, constants: PhysicalConstants) -> np.ndarray:
    """a_Q = -grad(V_Q)/m by central differences; NaN where not computable.

    Gradients are taken only inside contiguous unmasked runs (three-point
    stencils never straddle a masked node), so runs shorter than three
    points contribute nothing.
    """
    ok = _interior(~quantum.node_mask)
    grad = _central_first(quantum.values, quantum.coords)
    accel = -grad / float(constants.mass)
    return np.where(ok, accel, np.nan)


def probability_current(values, grid, constants: PhysicalConstants) -> np.ndarray:
    """j = (hbar/m) Im(conj(Psi) dPsi/dq) along the line; ends are NaN.

    The coordinate is treated as arc length, so for an azimuthal ring pass
    r sin(theta) phi as the grid.
    """
    coords = as_points(grid)
    field = np.asarray(values, dtype=complex)
    if field.shape != coords.shape:
        raise ValueError("field and grid shapes differ")
    derivative = _central_first(field, coords)
    return (float(constants.hbar) / float(constants.mass)) * np.imag(np.conj(field) * derivative)


def _laplacian_ratio(polar: PolarForm) -> tuple[np.ndarray, np.ndarray]:
    """A''/A along the line; returns (ratio, ok)."""
    if polar.amplitude_d2 is not None:
        d2, ok = polar.amplitude_d2, polar.valid
    else:
        d2, ok = _central_second(polar.amplitude, polar.coords), _interior(polar.valid)
    with np.errstate(divide="ignore", invalid="ignore"):
        return d2 / polar.amplitude, ok


def hj_residual_field(
    polar: PolarForm, v_external, ds_dt, constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (grad S)^2/2m - (hbar^2/2m) lap(A)/A + V + dS/dt.

    Returns the residual samples and the mask of points where every term
    could be evaluated.  dS/dt is passed as closed-form or finite-differenced
    samples.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    grad_s = _central_first(polar.phase, polar.coords)
    ok = _interior(polar.valid)
    kinetic = grad_s**2
    lap_ratio, lap_ok = _laplacian_ratio(polar)
    residual = kinetic / (2.0 * mass) - (hb * hb / (2.0 * mass)) * lap_ratio + v_external + ds_dt
    usable = ok & lap_ok
    if not usable.any():
        raise ValueError("no usable interior points")
    return residual, usable


def hj_residual(polar: PolarForm, v_external, ds_dt, constants: PhysicalConstants) -> float:
    """Max |residual| of the quantum Hamilton-Jacobi equation over valid points."""
    return _worst(*hj_residual_field(polar, v_external, ds_dt, constants))


def continuity_residual(
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
    weights = _first_weights(coords)
    flux = density * _central_first(phase, coords, weights) / mass
    divergence = _central_first(flux, coords, weights)
    density_rate = (polar_b.amplitude**2 - polar_a.amplitude**2) / dt
    return _worst(divergence + density_rate, _interior(_interior(valid)))


def euler_residual(
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
    weights = _first_weights(coords)
    p_a = _central_first(polar_a.phase, coords, weights)
    p_b = _central_first(polar_b.phase, coords, weights)
    p_mid = 0.5 * (p_a + p_b)
    dp_dt = (p_b - p_a) / dt
    advection = (p_mid / mass) * _central_first(p_mid, coords, weights)
    grad_q = _central_first(quantum.values, coords, weights)
    valid = polar_a.valid & polar_b.valid & ~quantum.node_mask
    return _worst(dp_dt + advection + grad_q, _interior(_interior(valid)))
