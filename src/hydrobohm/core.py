"""Shared physical constants, quantum-number bookkeeping and sample grids.

Everything downstream (eigenstates, Madelung fields, verification campaigns)
is expressed in terms of three primitive constants: hbar, the particle mass,
and the Coulomb coupling e^2/(4 pi eps0).  The Bohr radius and the Hartree
energy are derived, never stored, so the two unit presets cannot drift out
of sync with each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalConstants",
    "QuantumNumbers",
    "RadialGrid",
    "AxisGrid",
    "atomic_units",
    "si_units",
    "quantum_number_violation",
    "make_radial_grid",
    "make_axis_grid",
    "as_points",
]

# Relative amplitude floor of the Bohm potential, the polar form and the node mask.
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, particle mass and Coulomb coupling e^2/(4 pi eps0).

    Fields may be any positive real number type that supports arithmetic
    (floats normally; fractions.Fraction works too, which keeps derived
    energies exact for unit-free sanity checks).
    """

    hbar: object
    mass: object
    coulomb: object

    def __post_init__(self) -> None:
        for name in ("hbar", "mass", "coulomb"):
            value = getattr(self, name)
            as_float = float(value)
            if not math.isfinite(as_float) or as_float <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def bohr_radius(self):
        """a = hbar^2 / (m * coulomb)."""
        return self.hbar**2 / (self.mass * self.coulomb)

    @property
    def hartree(self):
        """coulomb / a = m * coulomb^2 / hbar^2."""
        return self.coulomb / self.bohr_radius


_ATOMIC_UNITS = PhysicalConstants(hbar=1.0, mass=1.0, coulomb=1.0)

_ELEMENTARY_CHARGE = 1.602176634e-19
_VACUUM_PERMITTIVITY = 8.8541878128e-12
_SI_UNITS = PhysicalConstants(
    hbar=1.054571817e-34,
    mass=9.1093837015e-31,
    coulomb=_ELEMENTARY_CHARGE**2 / (4.0 * math.pi * _VACUUM_PERMITTIVITY),
)


def atomic_units() -> PhysicalConstants:
    """hbar = m = coulomb = 1, hence a = 1 and hartree = 1.

    Every call returns the same frozen instance, built and validated once.
    """
    return _ATOMIC_UNITS


def si_units() -> PhysicalConstants:
    """CODATA 2018 values for the electron in SI units.

    Every call returns the same frozen instance, built and validated once.
    """
    return _SI_UNITS


def quantum_number_violation(n: int, l: int, m: int) -> str | None:
    """Return the first violated bound for (n, l, m), or None if valid."""
    for name, value in (("n", n), ("l", l), ("m", m)):
        if not isinstance(value, (int, np.integer)):
            return f"{name} must be an integer, got {value!r}"
    if n < 1:
        return "n must satisfy n >= 1"
    if l < 0:
        return "l must satisfy l >= 0"
    if l > n - 1:
        return "l must satisfy l <= n - 1"
    if abs(m) > l:
        return "m must satisfy |m| <= l"
    return None


@dataclass(frozen=True)
class QuantumNumbers:
    """Hydrogenic (n, l, m) triple; bounds are enforced at construction."""

    n: int
    l: int
    m: int = 0

    def __post_init__(self) -> None:
        message = quantum_number_violation(self.n, self.l, self.m)
        if message is not None:
            raise ValueError(message)


def _frozen_points(points: np.ndarray) -> np.ndarray:
    """A read-only copy that owns its data, so no other array can write to it.

    madelung._first_weights keeps the stencil weights of such an array.
    """
    points = np.array(points, dtype=float)
    points.setflags(write=False)
    return points


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing r > 0 samples, uniform or logarithmic in r."""

    r_min: float
    r_max: float
    count: int
    law: str = "uniform"
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.r_min > 0.0:
            raise ValueError("r_min must be > 0")
        if not self.r_max > self.r_min:
            raise ValueError("r_max must be > r_min")
        if self.count < 2:
            raise ValueError("count must be >= 2")
        if self.law == "uniform":
            pts = np.linspace(self.r_min, self.r_max, self.count)
        elif self.law == "logarithmic":
            pts = np.geomspace(self.r_min, self.r_max, self.count)
        else:
            raise ValueError(f"unknown grid law {self.law!r}")
        object.__setattr__(self, "points", _frozen_points(pts))

    @property
    def spacing(self) -> float:
        """Constant spacing of a uniform grid."""
        if self.law != "uniform":
            raise ValueError("spacing is only defined for uniform grids")
        return (self.r_max - self.r_min) / (self.count - 1)


@dataclass(frozen=True)
class AxisGrid:
    """Uniform samples of a 1D Cartesian coordinate."""

    x_min: float
    x_max: float
    count: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.x_max > self.x_min:
            raise ValueError("x_max must be > x_min")
        if self.count < 2:
            raise ValueError("count must be >= 2")
        object.__setattr__(
            self, "points", _frozen_points(np.linspace(self.x_min, self.x_max, self.count))
        )

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.count - 1)


def make_radial_grid(r_min: float, r_max: float, count: int, law: str = "uniform") -> RadialGrid:
    return RadialGrid(r_min=r_min, r_max=r_max, count=count, law=law)


def make_axis_grid(x_min: float, x_max: float, count: int) -> AxisGrid:
    return AxisGrid(x_min=x_min, x_max=x_max, count=count)


def as_points(grid) -> np.ndarray:
    """Sample coordinates of a RadialGrid or AxisGrid; arrays pass through."""
    if isinstance(grid, (RadialGrid, AxisGrid)):
        return grid.points
    return np.asarray(grid)


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
