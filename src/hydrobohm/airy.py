"""Force-free accelerating Airy packet in Madelung form.

The packet Psi(x, t) = Ai(u) e^{iS/hbar} with

    u = (B / hbar^{2/3}) (x - B^3 t^2 / 4 m^2)
    S = B^3 t (6 m^2 x - B^3 t^2) / (12 m^3)

solves the free Schrodinger equation exactly, yet its profile accelerates:
every feature of |Psi|^2 rides along x(t) = x(0) + B^3 t^2 / (4 m^2).  The
engine is the quantum potential alone.  Because Ai''(u) = u Ai(u), the Bohm
potential collapses to the closed form

    V_Bohm(x, t) = -(B^3 / 2m) (x - B^3 t^2 / 4 m^2),

a uniform linear ramp whose gradient gives the constant quantum acceleration
a_Q = B^3 / 2 m^2 with no external force present.  The packet is not
normalizable (the lobes decay like |u|^{-1/4}), so densities here are
relative, never probabilities.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .core import AMPLITUDE_FLOOR, PhysicalConstants, as_points
from .madelung import PolarForm, PotentialProfile, decompose
from .specfun import airy_ai

__all__ = [
    "AiryPacketParams",
    "airy_argument",
    "airy_phase",
    "airy_phase_time_derivative",
    "airy_psi",
    "airy_polar",
    "airy_bohm_closed_form",
    "airy_quantum_acceleration",
]


@dataclass(frozen=True)
class AiryPacketParams:
    """Profile-scale parameter B (dimension momentum^{2/3} here: [B]^3 = [p^2/x])."""

    strength: float
    constants: PhysicalConstants

    def __post_init__(self) -> None:
        if not self.strength > 0.0:
            raise ValueError("strength must be positive")

    @property
    def beta(self) -> float:
        """Spatial frequency of the profile: u = beta (x - drift)."""
        return self.strength / float(self.constants.hbar) ** (2.0 / 3.0)

    @property
    def drift_rate(self) -> float:
        """Coefficient of t^2 in the profile drift, B^3 / 4 m^2."""
        m = float(self.constants.mass)
        return self.strength**3 / (4.0 * m * m)


def airy_argument(params: AiryPacketParams, x, t: float):
    """u(x, t) = beta (x - B^3 t^2 / 4 m^2)."""
    return params.beta * (np.asarray(x) - params.drift_rate * t * t)


def airy_phase(params: AiryPacketParams, x, t: float):
    """Action phase S(x, t) = B^3 t (6 m^2 x - B^3 t^2) / 12 m^3."""
    b3 = params.strength**3
    m = float(params.constants.mass)
    # b3 t (6 m^2 x - b3 t^2) / 12 m^3, left to right, in one buffer.
    phase = np.multiply(6.0 * m * m, x)
    phase -= b3 * t * t
    phase *= b3 * t
    phase /= 12.0 * m**3
    return phase


def airy_phase_time_derivative(params: AiryPacketParams, x, t: float):
    """dS/dt = B^3 x / 2m - B^6 t^2 / 4 m^3."""
    b3 = params.strength**3
    m = float(params.constants.mass)
    return b3 * np.asarray(x) / (2.0 * m) - b3 * b3 * t * t / (4.0 * m**3)


def airy_psi(params: AiryPacketParams, x, t: float) -> np.ndarray:
    """Complex packet samples Ai(u) e^{iS/hbar}."""
    return _packet_field(params, x, t, airy_ai(airy_argument(params, x, t)))


def _packet_field(params: AiryPacketParams, x, t: float, envelope) -> np.ndarray:
    """Ai(u) e^{iS/hbar} from the envelope Ai(u) already evaluated on x."""
    hbar = float(params.constants.hbar)
    # envelope exp(i S / hbar), left to right, in one complex buffer.
    field = np.multiply(1j, airy_phase(params, x, t))
    field /= hbar
    if not isinstance(field, np.ndarray):  # a scalar x
        return envelope * np.exp(field)
    np.exp(field, out=field)
    return np.multiply(envelope, field, out=field)


def airy_polar(
    params: AiryPacketParams,
    grid,
    t: float,
    amplitude_floor: float = AMPLITUDE_FLOOR,
) -> PolarForm:
    """PolarForm of the packet at time t (Cartesian line geometry).

    The exact amplitude curvature A'' = beta^2 u A (from Ai'' = u Ai; the
    sign of each lobe cancels in the ratio) rides along, so residuals probe
    the phase bookkeeping rather than stencil noise.
    """
    x = as_points(grid)
    return _packet_polar(params, x, t, airy_psi(params, x, t), amplitude_floor)


def _packet_polar(params: AiryPacketParams, x, t: float, field, amplitude_floor: float) -> PolarForm:
    """airy_polar's body for the packet samples field already in hand on x."""
    polar = decompose(field, x, params.constants, amplitude_floor=amplitude_floor)
    curvature = params.beta**2 * airy_argument(params, x, t) * polar.amplitude
    return dataclasses.replace(polar, amplitude_d2=curvature)


def airy_bohm_closed_form(params: AiryPacketParams, grid, t: float) -> PotentialProfile:
    """Exact Bohm potential -(B^3/2m)(x - B^3 t^2 / 4 m^2).

    Follows from Ai''(u) = u Ai(u): the ratio lap(A)/A is smooth even across
    the amplitude zeros, so no point is masked.
    """
    x = as_points(grid)
    m = float(params.constants.mass)
    values = -(params.strength**3 / (2.0 * m)) * (x - params.drift_rate * t * t)
    return PotentialProfile(coords=x, values=values, node_mask=np.zeros(x.shape, bool))


def airy_quantum_acceleration(params: AiryPacketParams) -> float:
    """Constant acceleration a_Q = -grad(V_Bohm)/m = B^3 / 2 m^2."""
    m = float(params.constants.mass)
    return params.strength**3 / (2.0 * m * m)
