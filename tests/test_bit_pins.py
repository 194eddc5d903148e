"""Raw-bit digests of the flatness and Bohr-radius paths.

The CLI golden digests see these values only through formatted reports, so
each digest here is the SHA-256 of the float64 (or bool) bytes themselves:
the run_flatness(20) deviations, the analytic Bohm potential and its node
mask for three states, the run_bohr_radii(100) rows and every radial peak
with n <= 30.  They were recorded once and are never regenerated by the
suite: a change to how these quantities are evaluated must keep every bit.
"""

import hashlib

import numpy as np
import pytest

from hydrobohm import atomic_units, bohm_potential_analytic, radial_peaks, state
from hydrobohm.campaigns import default_hydrogen_grid, run_bohr_radii, run_flatness

AU = atomic_units()


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for values in arrays:
        hasher.update(np.ascontiguousarray(values).tobytes())
    return hasher.hexdigest()


def test_flatness_deviation_bits():
    report = run_flatness(20)
    deviations = np.array([case.computed for case in report.sorted_cases()], dtype=np.float64)
    assert deviations.size == 2870
    assert _digest(deviations) == "d9ba4635bb924b30169e2f14f9d55848437462b2cbd7f5b983f76a97fa9a24d4"


BOHM_BITS = [
    (16, 0, "52f5963fa6cc3ef147436039a5d8760882fe59bdd7c61c2a02a6b121983dbc83"),
    (20, 3, "43be1e5c0f4454b7599bfea23b835ddb4c6ac2012d6de047e1bdd9e932e50f59"),
    (20, 19, "38cfae1716af2db6b24997076390aeb8b433c6b5797d77582f679366b410b4e8"),
]


@pytest.mark.parametrize("n, l, digest", BOHM_BITS, ids=[f"n={n}-l={l}" for n, l, _ in BOHM_BITS])
def test_bohm_potential_analytic_bits(n, l, digest):
    profile = bohm_potential_analytic(state(n, l), default_hydrogen_grid(20, AU))
    assert profile.values.dtype == np.float64
    assert profile.node_mask.dtype == np.bool_
    assert _digest(profile.values, profile.node_mask) == digest


def test_bohr_radii_row_bits():
    _, rows = run_bohr_radii(100)
    table = np.array(rows, dtype=np.float64)  # (n, r_peak, n^2 a, rel_error, passed)
    assert table.shape == (100, 5)
    assert _digest(table) == "562dca820f17388a7215dcf5c7866fcdcf6846a1a00e35109403e1e382907e69"


def test_radial_peak_bits_to_n_30():
    peaks = [radial_peaks(state(n, l)) for n in range(1, 31) for l in range(n)]
    assert [p.size for p in peaks] == [n - l for n in range(1, 31) for l in range(n)]
    assert all(p.dtype == np.float64 for p in peaks)
    assert _digest(*peaks) == "271fad906911d6a7f91236559542f397694bcc1ac8b24a4121deb04b71614007"
