"""Polar decomposition, Bohm/quantum potentials and hydrodynamic residuals."""

import dataclasses
import math

import numpy as np
import pytest

from hydrobohm import (
    atomic_units,
    bohm_potential_analytic,
    bohm_potential_fd,
    coulomb_profile,
    decompose,
    energy_level,
    make_axis_grid,
    make_radial_grid,
    node_mask,
    probability_current,
    psi,
    quantum_acceleration,
    quantum_potential,
    radial_R,
    si_units,
    state,
)
from hydrobohm.campaigns import default_hydrogen_grid
from hydrobohm.core import _uniform_spacing
from hydrobohm.madelung import AMPLITUDE_FLOOR, _bohm_shell, _radial_fd_bohm, _unwrap

AU = atomic_units()


class TestDecompose:
    def test_plane_wave(self):
        grid = make_axis_grid(-10.0, 10.0, 2001)
        k = 1.7
        polar = decompose(np.exp(1j * k * grid.points), grid, AU)
        assert polar.valid.all()
        np.testing.assert_allclose(polar.amplitude, 1.0, rtol=1e-14)
        slopes = np.diff(polar.phase) / grid.spacing
        np.testing.assert_allclose(slopes, k, rtol=1e-10)

    def test_phase_carries_hbar(self):
        grid = make_axis_grid(-1.0, 1.0, 101)
        constants = dataclasses.replace(AU, hbar=3.0)
        polar = decompose(np.exp(1j * grid.points), grid, constants)
        slopes = np.diff(polar.phase) / grid.spacing
        np.testing.assert_allclose(slopes, 3.0, rtol=1e-10)

    def test_round_trip(self):
        grid = make_axis_grid(-5.0, 5.0, 801)
        values = np.exp(-0.5 * grid.points**2 + 0.9j * grid.points)
        polar = decompose(values, grid, AU)
        rebuilt = polar.amplitude * np.exp(1j * polar.phase / float(AU.hbar))
        ok = polar.valid
        np.testing.assert_allclose(rebuilt[ok], values[ok], rtol=1e-12, atol=1e-14)

    def test_below_floor_points_are_invalid(self):
        grid = make_axis_grid(0.0, 30.0, 301)
        values = np.exp(-grid.points).astype(complex)
        polar = decompose(values, grid, AU, amplitude_floor=1e-6)
        assert not polar.valid[-1]
        assert polar.valid[0]
        assert polar.phase[~polar.valid].max() == 0.0

    def test_sign_flip_masks_jump_straddlers(self):
        # A real envelope crossing zero between two samples forces a pi step
        # in the phase; the straddling pair cannot yield a trustworthy grad S
        # even though both amplitudes clear the floor.
        grid = make_axis_grid(-1.0, 1.0, 200)
        values = grid.points.astype(complex)
        polar = decompose(values, grid, AU, amplitude_floor=1e-15)
        crossing = np.abs(grid.points) < grid.spacing
        assert crossing.sum() == 2
        assert not polar.valid[crossing].any()
        assert polar.valid[np.abs(grid.points) > 0.1].all()

    def test_shape_mismatch_rejected(self):
        grid = make_axis_grid(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            decompose(np.ones(10, dtype=complex), grid, AU)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Steps where the wrap decision or the +pi tie fix is on a knife edge.
_EDGE_STEPS = (
    math.pi,
    -math.pi,
    math.nextafter(math.pi, 0.0),
    math.nextafter(math.pi, 4.0),
    -math.nextafter(math.pi, 0.0),
    -math.nextafter(math.pi, 4.0),
    2.0 * math.pi,
    -3.0 * math.pi,
)


class TestUnwrap:
    """madelung._unwrap is np.unwrap bit for bit, NaN and ties included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_phase_walks(self, seed):
        rng = np.random.default_rng(seed)
        for length in (3, 8, 40, 1000):
            angles = np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, 2.0, length))))
            # Splice exact steps in after a 0: the step is then the value itself.
            for step in _EDGE_STEPS:
                k = int(rng.integers(0, length - 1))
                angles[k], angles[k + 1] = 0.0, step
            if seed % 2:
                angles[rng.integers(0, length, 2)] = np.nan
            assert _same_bits(_unwrap(angles), np.unwrap(angles))

    @pytest.mark.parametrize("step", _EDGE_STEPS)
    def test_each_edge_step_alone(self, step):
        angles = np.array([0.0, step, step])
        assert _same_bits(_unwrap(angles), np.unwrap(angles))

    def test_exact_pi_step_keeps_its_sign(self):
        # mod(pi + pi, 2 pi) - pi is -pi; the tie fix turns a +pi step back
        # into +pi, so no correction is made.
        assert _same_bits(_unwrap(np.array([0.0, math.pi])), np.array([0.0, math.pi]))

    @pytest.mark.parametrize(
        "angles",
        [[], [1.5], [0.0, 3.5], [np.nan, 1.0], [1.0, np.nan], [np.nan], [0.0, 1.0, np.nan, 1.0]],
        ids=["len0", "len1", "len2", "nan-first", "nan-last", "nan-alone", "nan-inside"],
    )
    def test_short_and_nan_inputs(self, angles):
        angles = np.array(angles, dtype=float)
        assert _same_bits(_unwrap(angles), np.unwrap(angles))


class TestBohmPotential:
    def test_gaussian_profile_matches_closed_form(self):
        # A = exp(-x^2): A''/A = 4x^2 - 2, so V_B = -(1/2)(4x^2 - 2) in
        # atomic units.
        grid = make_axis_grid(-3.0, 3.0, 6001)
        values = np.exp(-grid.points**2).astype(complex)
        bohm = bohm_potential_fd(values, grid, AU)
        keep = ~bohm.node_mask
        expected = -0.5 * (4.0 * grid.points**2 - 2.0)
        assert np.max(np.abs(bohm.values[keep] - expected[keep])) < 5e-5

    def test_fd_agrees_with_analytic_on_uniform_grid(self):
        # The five-point radial stencil of the fd flatness check, over the
        # whole interior of a uniform grid at h = 10^-2 a.
        spec = state(3, 2)
        grid = make_radial_grid(0.5, 40.0, 3951)
        analytic = bohm_potential_analytic(spec, grid)
        r = grid.points
        h = _uniform_spacing(r)
        fd = _radial_fd_bohm(radial_R(spec, r), r, h, AU, 2, 2, r.size - 2)
        keep = ~analytic.node_mask[2:-2]
        assert keep.sum() > 1000
        assert np.max(np.abs(fd[keep] - analytic.values[2:-2][keep])) < 1e-6

    def test_quantum_potential_is_flat_for_eigenstates(self):
        grid = make_radial_grid(0.05, 90.0, 4000, law="logarithmic")
        coulomb = coulomb_profile(AU, grid)
        for n, l in [(1, 0), (2, 1), (3, 0), (5, 3), (10, 9)]:
            spec = state(n, l)
            quantum = quantum_potential(coulomb, bohm_potential_analytic(spec, grid))
            expected = energy_level(n, AU)
            keep = ~quantum.node_mask
            deviation = np.max(np.abs(quantum.values[keep] - expected))
            assert deviation < 1e-8 * abs(expected)

    def test_full_form_is_independent_of_m(self):
        grid = make_radial_grid(0.5, 30.0, 400)
        base = bohm_potential_analytic(state(4, 2, 0), grid).values
        for m in (1, -2):
            other = bohm_potential_analytic(state(4, 2, m), grid).values
            np.testing.assert_allclose(other, base, rtol=1e-12, equal_nan=True)

    def test_fd_requires_uniform_grid(self):
        grid = make_radial_grid(0.5, 5.0, 50, law="logarithmic")
        with pytest.raises(ValueError):
            bohm_potential_fd(np.ones(50, dtype=complex), grid, AU)

    def test_fd_rejects_a_one_point_grid_without_warning(self):
        # The point count is checked before the spacing is averaged, so no
        # empty-mean RuntimeWarning (an error under the suite's filter)
        # precedes the ValueError.
        with pytest.raises(ValueError, match="at least 5 grid points"):
            bohm_potential_fd(np.ones(1, dtype=complex), np.array([1.0]), AU)


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values).tobytes()


class TestBohmShell:
    """_bohm_shell walks the l of a shell downward and shares one Laguerre
    chain between neighbours; each state must keep the bits it has alone."""

    @pytest.mark.parametrize(
        "constants, n_max", [(AU, 20), (si_units(), 8)], ids=["atomic-n20", "si-n8"]
    )
    def test_shell_equals_single_state_bit_for_bit(self, constants, n_max):
        r = default_hydrogen_grid(n_max, constants).points
        for n in range(1, n_max + 1):
            ls = range(n - 1, -1, -1)
            for l, (values, usable) in zip(ls, _bohm_shell(n, ls, constants, r)):
                alone = bohm_potential_analytic(state(n, l, 0, constants), r)
                assert _bits(values) == _bits(alone.values), (n, l)
                assert _bits(~usable) == _bits(alone.node_mask), (n, l)

    def test_one_point_is_the_grid_value(self):
        spec = state(3, 1)
        point = bohm_potential_analytic(spec, 2.0)
        grid = bohm_potential_analytic(spec, np.array([1.0, 2.0, 3.0]))
        assert point.values.shape == ()
        assert _bits(point.values) == _bits(grid.values[1])
        assert not point.node_mask

    def test_single_state_mask_is_node_mask(self):
        r = default_hydrogen_grid(12, AU).points
        for n, l in [(12, 0), (12, 5), (9, 2), (3, 2)]:
            spec = state(n, l)
            np.testing.assert_array_equal(bohm_potential_analytic(spec, r).node_mask, node_mask(spec, r))


class TestQuantumAcceleration:
    def test_vanishes_for_eigenstates(self):
        grid = make_radial_grid(0.1, 60.0, 3000, law="logarithmic")
        coulomb = coulomb_profile(AU, grid)
        for n, l in [(1, 0), (3, 1), (5, 2)]:
            quantum = quantum_potential(coulomb, bohm_potential_analytic(state(n, l), grid))
            accel = quantum_acceleration(quantum, AU)
            assert np.nanmax(np.abs(accel)) < 1e-8

    def test_recovers_linear_force(self):
        grid = make_axis_grid(-2.0, 2.0, 401)
        profile = bohm_potential_fd(np.exp(-grid.points**2).astype(complex), grid, AU)
        accel = quantum_acceleration(profile, AU)
        # V_B = -(1/2)(4x^2 - 2) gives a = -V'/m = +4x.
        inner = np.isfinite(accel)
        np.testing.assert_allclose(accel[inner], 4.0 * grid.points[inner], atol=5e-3)


class TestProbabilityCurrent:
    def test_real_field_carries_no_current(self):
        grid = make_radial_grid(0.1, 30.0, 500)
        values = np.asarray(psi(state(3, 2, 0), grid.points, 1.0, 0.0), dtype=complex)
        current = probability_current(values, grid, AU)
        inner = np.isfinite(current)
        assert np.max(np.abs(current[inner])) == 0.0

    def test_ring_current_matches_closed_form(self):
        # j_phi = hbar m |psi|^2 / (M r sin theta) on an azimuthal ring.
        spec = state(2, 1, 1)
        r0, theta = 4.0, math.pi / 2.0
        phi = np.linspace(0.0, 2.0 * math.pi, 721)
        arc = r0 * math.sin(theta) * phi
        values = np.asarray(psi(spec, r0, theta, phi))
        grid = make_axis_grid(arc[0], arc[-1], arc.size)
        current = probability_current(values, grid, AU)
        density = np.abs(values) ** 2
        expected = 1.0 * density / (r0 * math.sin(theta))
        inner = np.isfinite(current)
        np.testing.assert_allclose(current[inner], expected[inner], rtol=1e-4)

    def test_plane_wave_current(self):
        grid = make_axis_grid(-5.0, 5.0, 20001)
        k = 2.0
        current = probability_current(np.exp(1j * k * grid.points), grid, AU)
        inner = np.isfinite(current)
        # Central differencing leaves O((kh)^2 / 6) relative truncation.
        np.testing.assert_allclose(current[inner], k, rtol=1e-6)


class TestProfilesAndConstants:
    def test_coulomb_profile_values(self):
        grid = make_radial_grid(0.5, 10.0, 20)
        profile = coulomb_profile(AU, grid)
        np.testing.assert_allclose(profile.values, -1.0 / grid.points, rtol=1e-15)
        assert not profile.node_mask.any()

    def test_amplitude_floor_constant(self):
        assert AMPLITUDE_FLOOR == 1e-12
