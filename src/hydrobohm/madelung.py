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
import warnings
from dataclasses import dataclass

import numpy as np

from .core import AMPLITUDE_FLOOR, PhysicalConstants, _above_floor, _interior, _uniform_spacing, _worst, as_points
from .hydrogen import EigenstateSpec, _radial_from_laguerre
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


# coords and weights of the last grid _first_weights may keep; see there.
_first_weights_cache: tuple = (None, None)


def _first_weights(coords: np.ndarray) -> tuple:
    """Geometry of _central_first's stencil: h1^2, h2^2, h2^2 - h1^2, h1 h2 (h1 + h2).

    The weights of the last read-only coordinate array that owns its data
    (the points of a RadialGrid or AxisGrid) are kept, so the fields
    differentiated on one grid share one build.  A writeable array, or a
    view whose base may be written, gets its weights built on every call.
    Only code that sets such an array writeable, writes to it and freezes
    it again would read stale weights; the grids never do.
    """
    global _first_weights_cache
    cached_coords, weights = _first_weights_cache
    if coords is cached_coords and not coords.flags.writeable:
        return weights
    weights = _build_first_weights(coords)
    if coords.flags.owndata and not coords.flags.writeable:
        for array in weights:
            array.setflags(write=False)
        _first_weights_cache = (coords, weights)
    return weights


def _build_first_weights(coords: np.ndarray) -> tuple:
    h1 = coords[1:-1] - coords[:-2]
    h2 = coords[2:] - coords[1:-1]
    denominator = h1 * h2
    denominator *= h1 + h2
    h1 *= h1
    h2 *= h2
    return h1, h2, h2 - h1, denominator


def _central_first(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a possibly nonuniform grid.

    The weights come from _first_weights, so on the points of a grid
    object they are built once for every field differentiated there.
    """
    out = np.full(values.shape, np.nan, dtype=np.result_type(values, coords, float))
    h1_sq, h2_sq, h_diff, denominator = _first_weights(coords)
    # (v+ h1^2 - v- h2^2 + v0 (h2^2 - h1^2)) / (h1 h2 (h1 + h2)), left to right,
    # in the dtype of values and weights (float32 stays float32 until stored).
    dtype = np.result_type(values, h1_sq)
    in_place = dtype == out.dtype
    numerator = out[1:-1] if in_place else np.empty(h1_sq.shape, dtype)
    term = np.multiply(values[:-2], h2_sq)
    np.multiply(values[2:], h1_sq, out=numerator)
    numerator -= term
    numerator += np.multiply(values[1:-1], h_diff, out=term)
    numerator /= denominator
    if not in_place:
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
    # The raw angles are unwrapped run by run in place; the angles left
    # between runs are never compared (jump reads valid pairs only) and are
    # zeroed at the end.
    phase = np.angle(values)
    for start, stop in _runs(valid):
        run = phase[start:stop]
        _unwrap(run, out=run)
        run *= hbar
    step = np.diff(phase)
    jump = np.abs(step, out=step) > 0.5 * math.pi * hbar
    jump &= valid[:-1]
    jump &= valid[1:]
    valid[:-1] &= ~jump
    valid[1:] &= ~jump
    phase[~valid] = 0.0
    return PolarForm(coords=coords, amplitude=amplitude, phase=phase, valid=valid)


def _unwrap(angles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """np.unwrap(angles) bit for bit, wrapping only the steps that need it.

    np.unwrap reduces every step into [-pi, pi) and then zeroes the
    correction wherever |step| < pi.  Here the reduction, the +pi tie fix
    and the correction run only on the other steps, selected as
    ~(|step| < pi) so that a NaN step stays NaN as in np.unwrap.  The
    running sum and the final add stay dense.  out may be angles itself.
    """
    steps = np.diff(angles)
    correction = np.abs(steps)
    small = np.less(correction, math.pi)
    jumps = np.flatnonzero(np.logical_not(small, out=small))
    correction.fill(0)
    if jumps.size:
        step = steps[jumps]
        wrapped = np.mod(step + math.pi, 2.0 * math.pi) - math.pi
        wrapped[(wrapped == -math.pi) & (step > 0)] = math.pi
        correction[jumps] = wrapped - step
    if out is None:
        out = np.empty_like(angles)
    out[:1] = angles[:1]
    np.add(angles[1:], np.cumsum(correction, out=correction), out=out[1:])
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
    assembly; the values are NaN where node_mask is set.  Alone, a state
    runs all three of its recurrences: the L'' chain it shares with
    (n, l + 1) in a shell walk is run for it here.  A value that is not
    finite where node_mask is unset raises a RuntimeWarning.
    """
    r = as_points(grid)
    ((values, usable),) = _bohm_shell(spec.n, (spec.l,), spec.constants, r)
    if not np.isfinite(values[usable]).all():
        message = f"non-finite Bohm potential on a usable point of (n, l) = ({spec.n}, {spec.l})"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    node_mask = ~usable
    values[node_mask] = np.nan
    return PotentialProfile(coords=r, values=values, node_mask=node_mask)


def _bohm_shell(n: int, ls, constants: PhysicalConstants, r: np.ndarray):
    """Analytic Bohm potential of (n, l) at r and its usable points, for each l in ls.

    Yields (values, usable) in the order of ls.  values is a buffer of
    the shell, valid until the next l is requested: the next step
    overwrites it, so a caller that keeps it copies it.  It is specified
    only where usable is set; elsewhere it holds whatever the arithmetic
    left, NaN and inf included (bohm_potential_analytic writes the NaNs).
    Off the usable points L may be a node's zero, so the divisions run
    with numpy's floating-point warnings off, on every point; the callers
    warn instead when a usable value is not finite
    (bohm_potential_analytic, campaigns._flatness_deviation).
    The radial part is assembled in the rho^l-factored form

        lap(psi)/psi = c^2 [ 2(l+1)/rho (L'/L - 1/2) + 1/4 - L'/L + L''/L ],

    c = 2/(n a), which cancels the l/r^2 growth symbolically and keeps the
    evaluation well conditioned down to small r.  With k = n - l - 1, L,
    L' and L'' are L_k^{2l+1}, -L_{k-1}^{2l+2} and L_{k-2}^{2l+3}: three
    separate recurrences per state, none of them the Laguerre ODE, so the
    identity V_Q = E_n stays a nontrivial numerical statement about them.
    All l of one shell share rho, e^{-rho/2} and the work buffers, and
    each l runs the same operations in the same order on every usable
    point as a whole-array expression of the formula.  The chain that
    gives L_{k-1}^{2l+3}, the L of (n, l + 1), passes L_{k-2}^{2l+3} on
    its way (_laguerre_pair), so when l follows l + 1 in ls its L'' costs
    no recurrence: all n values of l, walked downward, take 2n - 1
    recurrences.  A point is usable where R_nl, assembled from the L
    already in hand, clears AMPLITUDE_FLOOR of its peak (_above_floor);
    the points it leaves out are those node_mask flags.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    a = float(constants.bohr_radius)
    c = 2.0 / (n * a)
    rho = c * r
    envelope = np.exp(-rho / 2)
    zeros = np.zeros_like(rho)
    values, ratio1, work = (np.empty_like(rho) for _ in range(3))
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
        magnitude = _radial_from_laguerre(n, l, a, rho, lag, envelope, out=values)
        usable = _above_floor(np.abs(magnitude, out=magnitude), AMPLITUDE_FLOOR)
        # coefficient * (scale * (2(l+1)/rho * (ratio1 - 0.5) + 0.25 - ratio1
        # + ratio2)), ratio_j = L_j / L, in the order the expression runs.
        # Off the usable points L may be a node's zero; what that gives there
        # is not read.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.divide(lag1, lag, out=ratio1)
            np.divide(2.0 * (l + 1), rho, out=values)
            values *= np.subtract(ratio1, 0.5, out=work)
            values += 0.25
            values -= ratio1
            values += np.divide(lag2, lag, out=work)
            values *= scale
            values *= coefficient
        yield values, usable


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
    accel = _central_first(quantum.values, quantum.coords)
    np.negative(accel, out=accel)
    accel /= float(constants.mass)
    accel[~ok] = np.nan
    return accel


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


def _laplacian_ratio(polar: PolarForm) -> np.ndarray:
    """A''/A along the line, in an array of its own."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if polar.amplitude_d2 is not None:
            return polar.amplitude_d2 / polar.amplitude
        d2 = _central_second(polar.amplitude, polar.coords)
        d2 /= polar.amplitude
        return d2


def hj_residual_field(
    polar: PolarForm, v_external, ds_dt, constants: PhysicalConstants
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise (grad S)^2/2m - (hbar^2/2m) lap(A)/A + V + dS/dt.

    Returns the residual samples and the mask of points where every term
    could be evaluated.  dS/dt is passed as closed-form or finite-differenced
    samples.
    """
    hb, mass = float(constants.hbar), float(constants.mass)
    ok = _interior(polar.valid)
    # (grad S)^2 / 2m - (hbar^2/2m) A''/A + V + dS/dt, left to right.
    residual = _central_first(polar.phase, polar.coords)
    np.square(residual, out=residual)
    residual /= 2.0 * mass
    lap_term = _laplacian_ratio(polar)
    lap_term *= hb * hb / (2.0 * mass)
    residual -= lap_term
    residual += v_external
    residual += ds_dt
    if not ok.any():
        raise ValueError("no usable interior points")
    return residual, ok


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
    square_a = np.square(polar_a.amplitude)
    square_b = np.square(polar_b.amplitude)
    phase = np.add(polar_a.phase, polar_b.phase)
    phase *= 0.5
    flux = _central_first(phase, coords)
    density = np.add(square_a, square_b, out=phase)
    density *= 0.5
    flux *= density
    flux /= mass
    residual = _central_first(flux, coords)
    density_rate = np.subtract(square_b, square_a, out=square_b)
    density_rate /= dt
    residual += density_rate
    return _worst(residual, _interior(_interior(valid)))


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
    p_a = _central_first(polar_a.phase, coords)
    p_b = _central_first(polar_b.phase, coords)
    p_mid = np.add(p_a, p_b)
    p_mid *= 0.5
    residual = np.subtract(p_b, p_a, out=p_b)
    residual /= dt
    advection = _central_first(p_mid, coords)
    p_mid /= mass
    advection *= p_mid
    residual += advection
    residual += _central_first(quantum.values, coords)
    valid = polar_a.valid & polar_b.valid & ~quantum.node_mask
    return _worst(residual, _interior(_interior(valid)))
