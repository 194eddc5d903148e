"""Quantum-potential verification toolkit.

Numerically verifies two exact statements about quantum dynamics in
Madelung form: the quantum potential of every hydrogen eigenstate is the
constant E_n (so the quantum acceleration vanishes and stationary orbits
need no radiation), and the radial-distribution peak of every circular
state (l = n-1) sits at the Bohr radius n^2 a.  The accelerating Airy
packet provides the complementary case: a free particle whose features
accelerate under the quantum potential alone.
"""

from .airy import (
    AiryPacketParams,
    airy_argument,
    airy_bohm_closed_form,
    airy_phase,
    airy_phase_time_derivative,
    airy_polar,
    airy_psi,
    airy_quantum_acceleration,
)
from .campaigns import (
    profile_curve,
    run_airy,
    run_bohr_radii,
    run_flatness,
    run_levels,
)
from .core import (
    AxisGrid,
    PhysicalConstants,
    QuantumNumbers,
    RadialGrid,
    atomic_units,
    make_axis_grid,
    make_radial_grid,
    quantum_number_violation,
    si_units,
)
from .hydrogen import (
    EigenstateSpec,
    energy_level,
    node_mask,
    overlap,
    psi,
    radial_distribution,
    radial_peaks,
    radial_R,
    radial_R_derivatives,
    schrodinger_residual,
    state,
)
from .madelung import (
    PolarForm,
    PotentialProfile,
    bohm_potential_analytic,
    bohm_potential_fd,
    continuity_residual,
    coulomb_profile,
    decompose,
    euler_residual,
    hj_residual,
    hj_residual_field,
    probability_current,
    quantum_acceleration,
    quantum_potential,
)
from .reports import CaseRecord, VerificationReport
from .specfun import airy_ai, laguerre, laguerre_derivative, spherical_harmonic

__version__ = "0.1.0"

__all__ = [
    "AiryPacketParams",
    "AxisGrid",
    "CaseRecord",
    "EigenstateSpec",
    "PhysicalConstants",
    "PolarForm",
    "PotentialProfile",
    "QuantumNumbers",
    "RadialGrid",
    "VerificationReport",
    "airy_ai",
    "airy_argument",
    "airy_bohm_closed_form",
    "airy_phase",
    "airy_phase_time_derivative",
    "airy_polar",
    "airy_psi",
    "airy_quantum_acceleration",
    "atomic_units",
    "bohm_potential_analytic",
    "bohm_potential_fd",
    "continuity_residual",
    "coulomb_profile",
    "decompose",
    "energy_level",
    "euler_residual",
    "hj_residual",
    "hj_residual_field",
    "laguerre",
    "laguerre_derivative",
    "make_axis_grid",
    "make_radial_grid",
    "node_mask",
    "overlap",
    "probability_current",
    "profile_curve",
    "psi",
    "quantum_acceleration",
    "quantum_number_violation",
    "quantum_potential",
    "radial_R",
    "radial_R_derivatives",
    "radial_distribution",
    "radial_peaks",
    "run_airy",
    "run_bohr_radii",
    "run_flatness",
    "run_levels",
    "schrodinger_residual",
    "si_units",
    "spherical_harmonic",
    "state",
    "__version__",
]
