"""Raw-bit digests of the flatness, Bohr-radius and Airy-packet paths.

The CLI golden digests see these values only through formatted reports, so
each digest here is the SHA-256 of the float64 (or bool) bytes themselves:
the run_flatness(20) deviations, the analytic Bohm potential and its node
mask for three states, the finite-difference Bohm potential and its mask
of the fd flatness references in tests/oracles.py (five points at the
package's step, and three points at the step of the second-order path
they replaced) for three states each, on one Airy residual grid and for
one complex Cartesian field, the run_bohr_radii(100) rows, every peak
of the scan-and-tree peak oracle with n <= 30, the run_airy case values
and rows for three strengths over four times, and the packet's density,
current and Hamilton-Jacobi residual profiles at two times.  They were recorded once
and are never regenerated by the suite: a change to how these quantities
are evaluated must keep every bit.
"""

import hashlib

import numpy as np
import pytest

from hydrobohm import (
    AiryPacketParams,
    airy_argument,
    atomic_units,
    bohm_potential_analytic,
    bohm_potential_fd,
    make_axis_grid,
    specfun,
    state,
)
from hydrobohm.campaigns import (
    AIRY_RESIDUAL_FLOOR,
    _airy_residual_grid,
    default_hydrogen_grid,
    profile_curve,
    run_airy,
    run_bohr_radii,
    run_flatness,
)

import oracles

pytestmark = pytest.mark.pins

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


FD_RADIAL_BITS = [
    (3, 0, 3501, "67358d313318185c51e1f39d8e69f514c76e270fb2f9a3ce9b3a76c31f42e73c"),
    (6, 2, 14301, "d2eb4774ab27db4ea1fe5d453b7715182d5cd90af23c47cfa2432fc74977ccee"),
    (9, 8, 32301, "171fd107acae9b523b086764b774d2c944710f3eae1b7e87f1f389bbffc6f314"),
]


@pytest.mark.parametrize(
    "n, l, size, digest", FD_RADIAL_BITS, ids=[f"n={n}-l={l}" for n, l, _, _ in FD_RADIAL_BITS]
)
def test_bohm_potential_fd_radial_bits(n, l, size, digest):
    # The five-point reference that run_flatness(method="fd") matches bit
    # for bit (test_campaigns.py), on its grid at h = 10^-2 a.
    _, values, node_mask, _ = oracles.fd_flatness_reference(n, l)
    assert values.dtype == np.float64
    assert values.size == size
    assert _digest(values, node_mask) == digest


# Recorded from the package's second-order radial path at h = 10^-3 a
# before it moved to tests/oracles.py; the moved copy keeps its bits.
FD2_RADIAL_BITS = [
    (3, 0, 35001, "de54125c97e314d255d964d531480d6cd69c6dfd478be3376f350da6b903c20a"),
    (6, 2, 143001, "fb43aee8504febebc7f91993e70360adfc0917d0f3fcd5d6757a40481d4d247e"),
    (9, 8, 323001, "8438ddee3cb6acef7d3cb80b8b52468bced6a4e7613fa73f7e487f182a049782"),
]


@pytest.mark.parametrize(
    "n, l, size, digest", FD2_RADIAL_BITS, ids=[f"n={n}-l={l}" for n, l, _, _ in FD2_RADIAL_BITS]
)
def test_second_order_radial_reference_bits(n, l, size, digest):
    _, values, node_mask, _ = oracles.fd_flatness_reference(n, l, step=1e-3, order=2)
    assert values.size == size
    assert _digest(values, node_mask) == digest


def test_bohm_potential_fd_airy_bits():
    params = AiryPacketParams(1.0, AU)
    grid = _airy_residual_grid(params, 0.3)
    envelope = specfun.airy_ai(airy_argument(params, grid.points, 0.3))
    profile = bohm_potential_fd(envelope, grid, AU, amplitude_floor=AIRY_RESIDUAL_FLOOR)
    assert profile.values.size == 32001
    assert int(profile.node_mask.sum()) == 829
    assert _digest(profile.values, profile.node_mask) == (
        "86a0c86f2f6227791e1be980aa267ac27e7a27b0376a0e47f94080f19b66cba4"
    )


def test_bohm_potential_fd_complex_field_bits():
    grid = make_axis_grid(-3.0, 3.0, 601)
    field = np.exp(-grid.points**2).astype(complex) * np.exp(0.3j * grid.points)
    profile = bohm_potential_fd(field, grid, AU)
    assert profile.values.dtype == np.float64
    assert _digest(profile.values, profile.node_mask) == (
        "7d0fde733287f2f6ecb80229c196da48b43a511ebb913ba33ae25e57fe827b32"
    )


def test_bohr_radii_row_bits():
    _, rows = run_bohr_radii(100)
    table = np.array(rows, dtype=np.float64)  # (n, r_peak, n^2 a, rel_error, passed)
    assert table.shape == (100, 5)
    assert _digest(table) == "562dca820f17388a7215dcf5c7866fcdcf6846a1a00e35109403e1e382907e69"


def test_radial_peak_bits_to_n_30():
    # radial_peaks takes circular states only; the scan-and-tree oracle it
    # matches bit for bit there is pinned on every state.
    peaks = [oracles.scan_peaks(state(n, l)) for n in range(1, 31) for l in range(n)]
    assert [p.size for p in peaks] == [n - l for n in range(1, 31) for l in range(n)]
    assert all(p.dtype == np.float64 for p in peaks)
    assert _digest(*peaks) == "271fad906911d6a7f91236559542f397694bcc1ac8b24a4121deb04b71614007"


AIRY_TIMES = (-1.0, 0.0, 0.3, 1.0)
AIRY_RUN_BITS = [
    (0.5, "0bd93ad9f69438a3d5c24a566e4da89f677fda618fc38e8d8921cc19621ba4d9"),
    (1.0, "6e3523094bad13f65b2e78d5e0ebeb50bb0de1e0114d58b863298eaa9c56eb78"),
    (2.0, "0eedc21e1c0c6e1b6856d45970df3be0395ed88668e5c26d7998c1eb379720e5"),
]


@pytest.mark.parametrize("strength, digest", AIRY_RUN_BITS, ids=[f"B={b:g}" for b, _ in AIRY_RUN_BITS])
def test_run_airy_bits(strength, digest):
    report, rows = run_airy(strength, AIRY_TIMES)
    assert report.case_count == 20
    assert report.all_passed
    computed = np.array([case.computed for case in report.sorted_cases()], dtype=np.float64)
    table = np.array(rows, dtype=np.float64)  # (t, displacement, expected)
    assert table.shape == (4, 3)
    assert _digest(computed, table) == digest


AIRY_PROFILE_BITS = [
    ("P", 0.0, "feb6c495c3eb5ebffd9186267ea007420fdc896af1f40a30b8f2de8ab1d249d1"),
    ("P", 0.5, "8fbd97d2600793a465562fa697b7b021e76e85f5294310cb4441e03772d59f91"),
    ("j", 0.0, "36438cefa7206dac9ef150b613418d5912c3eb69ed4e0084798602985b43470d"),
    ("j", 0.5, "c991f98f00440a9f34edeade412eea82c8487f4a2a8dfaf6109706971563acfd"),
    ("residual", 0.0, "e17ef0f1ee53b7db826e87ad9dd8b8d3057d6969d1288df9b6e48c09ecad2749"),
    ("residual", 0.5, "f120506d6dfceda4af667eed6d8cb3c66f4305531b2372d551dc81aaaa9f1ba8"),
]


@pytest.mark.parametrize(
    "quantity, t, digest", AIRY_PROFILE_BITS, ids=[f"{q}-t={t:g}" for q, t, _ in AIRY_PROFILE_BITS]
)
def test_airy_profile_bits(quantity, t, digest):
    curve = profile_curve("airy", quantity, time=t)
    assert curve.values.dtype == np.float64
    assert curve.masked.dtype == np.bool_
    assert curve.values.size == 8000
    assert _digest(curve.values, curve.masked) == digest
