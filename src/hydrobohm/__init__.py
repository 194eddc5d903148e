"""Quantum-potential verification toolkit.

Numerically verifies two exact statements about quantum dynamics in
Madelung form: the quantum potential of every hydrogen eigenstate is the
constant E_n (so the quantum acceleration vanishes and stationary orbits
need no radiation), and the radial-distribution peak of every circular
state (l = n-1) sits at the Bohr radius n^2 a.  The accelerating Airy
packet provides the complementary case: a free particle whose features
accelerate under the quantum potential alone.

The package namespace is lazy (PEP 562): ``import hydrobohm`` loads no
submodule, and each public name imports the submodule that defines it on
first use, so a Gram check loads only core, specfun and hydrogen.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the submodule that defines them.  The keys are the
# submodules that `import hydrobohm` makes reachable as attributes.
_EXPORTS = {
    "airy": (
        "AiryPacketParams",
        "airy_argument",
        "airy_bohm_closed_form",
        "airy_phase",
        "airy_phase_time_derivative",
        "airy_polar",
        "airy_psi",
        "airy_quantum_acceleration",
    ),
    "campaigns": ("profile_curve", "run_airy", "run_bohr_radii", "run_flatness", "run_levels"),
    "core": (
        "AxisGrid",
        "PhysicalConstants",
        "QuantumNumbers",
        "RadialGrid",
        "atomic_units",
        "make_axis_grid",
        "make_radial_grid",
        "quantum_number_violation",
        "si_units",
    ),
    "hydrogen": (
        "EigenstateSpec",
        "energy_level",
        "node_mask",
        "overlap",
        "psi",
        "radial_distribution",
        "radial_peaks",
        "radial_R",
        "radial_R_derivatives",
        "schrodinger_residual",
        "state",
    ),
    "madelung": (
        "PolarForm",
        "PotentialProfile",
        "bohm_potential_analytic",
        "bohm_potential_fd",
        "continuity_residual",
        "coulomb_profile",
        "decompose",
        "euler_residual",
        "hj_residual",
        "hj_residual_field",
        "probability_current",
        "quantum_acceleration",
        "quantum_potential",
    ),
    "reports": ("CaseRecord", "VerificationReport"),
    "specfun": ("airy_ai", "laguerre", "laguerre_derivative", "spherical_harmonic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    """Import the submodule that defines name, and bind name in the package."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
