"""The package namespace: the same public names as before, each loaded on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hydrobohm

NAMES = [
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
SUBMODULES = ["airy", "campaigns", "core", "hydrogen", "madelung", "reports", "specfun"]


def fresh(code: str):
    """The JSON that code prints, run in a new interpreter that has imported nothing of hydrobohm."""
    src = str(Path(hydrobohm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


LOADED = "sorted(name for name in sys.modules if name.startswith('hydrobohm.'))"


def test_import_loads_no_submodule_and_a_name_loads_only_what_it_needs():
    loaded = fresh(
        "import hydrobohm\n"
        f"after_import = {LOADED}\n"
        "hydrobohm.overlap\n"
        f"print(json.dumps([after_import, {LOADED}]))\n"
    )
    assert loaded == [[], ["hydrobohm.core", "hydrobohm.hydrogen", "hydrobohm.specfun"]]


def test_each_submodule_is_an_attribute_after_a_plain_import():
    names = fresh(
        "import hydrobohm\n"
        f"print(json.dumps([getattr(hydrobohm, name).__name__ for name in {SUBMODULES!r}]))\n"
    )
    assert names == [f"hydrobohm.{name}" for name in SUBMODULES]


def test_all_lists_the_public_names():
    assert hydrobohm.__all__ == NAMES


@pytest.mark.parametrize("name", NAMES[:-1])
def test_each_name_is_its_defining_module_attribute(name):
    value = getattr(hydrobohm, name)
    assert value.__module__.startswith("hydrobohm.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert vars(hydrobohm)[name] is value


def test_dir_and_star_import_give_every_name():
    assert set(NAMES + SUBMODULES) <= set(dir(hydrobohm))
    namespace = {}
    exec("from hydrobohm import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {name: getattr(hydrobohm, name) for name in NAMES}


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hydrobohm.no_such_name
