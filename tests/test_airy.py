"""Accelerating Airy packet: phases, closed-form potentials, residuals."""

import dataclasses
import math

import numpy as np
import pytest

from hydrobohm import (
    AiryPacketParams,
    airy_ai,
    airy_argument,
    airy_bohm_closed_form,
    airy_phase,
    airy_phase_time_derivative,
    airy_polar,
    airy_psi,
    airy_quantum_acceleration,
    atomic_units,
    continuity_residual,
    euler_residual,
    hj_residual,
    hj_residual_field,
    make_axis_grid,
)
from hydrobohm.airy import _packet_field

import oracles

AU = atomic_units()


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def params(strength=1.0):
    return AiryPacketParams(strength=strength, constants=AU)


class TestParams:
    def test_derived_rates(self):
        p = params(2.0)
        assert p.beta == pytest.approx(2.0)
        assert p.drift_rate == pytest.approx(2.0)
        assert params(1.0).drift_rate == pytest.approx(0.25)

    def test_hbar_scaling_of_beta(self):
        import dataclasses

        constants = dataclasses.replace(AU, hbar=8.0)
        p = AiryPacketParams(strength=1.0, constants=constants)
        assert p.beta == pytest.approx(0.25)

    def test_rejects_non_positive_strength(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                params(bad)


class TestPhaseAndArgument:
    def test_argument_tracks_the_drifting_frame(self):
        p = params(1.0)
        assert airy_argument(p, 1.0, 0.0) == pytest.approx(1.0)
        assert airy_argument(p, 1.0, 2.0) == pytest.approx(0.0)

    def test_phase_spot_value(self):
        # S(x=1, t=1) = B^3 t (6 m^2 x - B^3 t^2) / (12 m^3) = 5/12 at B=1.
        assert airy_phase(params(1.0), 1.0, 1.0) == pytest.approx(5.0 / 12.0, rel=1e-15)

    def test_phase_time_derivative_spot_value(self):
        # dS/dt = B^3 x / (2 m) - B^6 t^2 / (4 m^3) = 1/2 - 1/4 at (1, 1).
        assert airy_phase_time_derivative(params(1.0), 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_phase_rate_matches_difference_quotient(self):
        p = params(1.5)
        x = np.linspace(-3.0, 3.0, 7)
        dt = 1e-6
        rate = (airy_phase(p, x, 0.4 + dt) - airy_phase(p, x, 0.4 - dt)) / (2.0 * dt)
        np.testing.assert_allclose(airy_phase_time_derivative(p, x, 0.4), rate, rtol=1e-8)

    def test_psi_is_envelope_times_phase_factor(self):
        p = params(1.3)
        x = np.linspace(-4.0, 2.0, 9)
        t = 0.7
        value = airy_psi(p, x, t)
        expected = airy_ai(airy_argument(p, x, t)) * np.exp(1j * airy_phase(p, x, t))
        np.testing.assert_allclose(value, expected, rtol=1e-14)


class TestPacketKernelsKeepTheBits:
    """airy_phase and _packet_field against their kept allocating bodies (tests/oracles.py)."""

    @pytest.mark.parametrize("strength, t", [(0.5, 0.3), (1.0, 0.0), (2.0, -1.0), (7.0, 0.05)])
    def test_phase_and_field(self, strength, t):
        p = AiryPacketParams(strength, dataclasses.replace(AU, hbar=0.7, mass=1.9))
        rng = np.random.default_rng(int(strength * 10))
        grid_points = make_axis_grid(-15.0, 10.0, 1001).points
        scattered = rng.uniform(-20.0, 20.0, 257)
        scattered[::31] = np.nan
        for x in (grid_points, scattered, scattered.tolist(), 1.25):
            phase = airy_phase(p, x, t)
            assert _same_bits(phase, oracles.airy_phase_reference(p, x, t))
            envelope = rng.normal(0.0, 1.0, np.shape(x)) if np.ndim(x) else 0.375
            field = _packet_field(p, x, t, envelope)
            assert _same_bits(field, oracles.packet_field_reference(p, x, t, envelope))


class TestClosedFormPotential:
    def test_linear_ramp_values_and_slope(self):
        p = params(1.0)
        grid = make_axis_grid(-5.0, 5.0, 11)
        profile = airy_bohm_closed_form(p, grid, 0.0)
        np.testing.assert_allclose(profile.values, -0.5 * grid.points, rtol=1e-14)
        assert not profile.node_mask.any()

    def test_ramp_follows_the_packet(self):
        p = params(2.0)
        grid = make_axis_grid(-2.0, 2.0, 5)
        t = 0.6
        shift = p.drift_rate * t * t
        profile = airy_bohm_closed_form(p, grid, t)
        expected = -(8.0 / 2.0) * (grid.points - shift)
        np.testing.assert_allclose(profile.values, expected, rtol=1e-14)

    def test_uniform_acceleration_value(self):
        assert airy_quantum_acceleration(params(1.0)) == pytest.approx(0.5)
        assert airy_quantum_acceleration(params(2.0)) == pytest.approx(4.0)


class TestPolarSection:
    def test_attached_curvature_matches_differences(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 4001)
        polar = airy_polar(p, grid, 0.3)
        assert polar.amplitude_d2 is not None
        h = grid.spacing
        amp = polar.amplitude
        fd = (amp[2:] - 2.0 * amp[1:-1] + amp[:-2]) / h**2
        keep = polar.valid[1:-1] & (np.abs(amp[1:-1]) > 0.05 * np.abs(amp).max())
        np.testing.assert_allclose(polar.amplitude_d2[1:-1][keep], fd[keep], rtol=1e-4, atol=1e-6)


class TestHydrodynamicBalance:
    def test_hamilton_jacobi_residual_is_tiny(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 2001)
        t = 0.3
        polar = airy_polar(p, grid, t, amplitude_floor=0.05)
        v_external = np.zeros(grid.count)
        ds_dt = airy_phase_time_derivative(p, grid.points, t)
        assert hj_residual(polar, v_external, ds_dt, AU) < 1e-8

    def test_hamilton_jacobi_with_fd_amplitude(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 32001)
        polar = airy_polar(p, grid, 0.0, amplitude_floor=0.05)
        stripped = dataclasses.replace(polar, amplitude_d2=None)
        ds_dt = airy_phase_time_derivative(p, grid.points, 0.0)
        assert hj_residual(stripped, np.zeros(grid.count), ds_dt, AU) < 1e-5

    def test_hamilton_jacobi_detects_wrong_phase_rate(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 2001)
        polar = airy_polar(p, grid, 0.3, amplitude_floor=0.05)
        wrong = 1.001 * airy_phase_time_derivative(p, grid.points, 0.3)
        assert hj_residual(polar, np.zeros(grid.count), wrong, AU) > 1e-4

    def test_residual_field_exposes_usable_mask(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 2001)
        polar = airy_polar(p, grid, 0.3, amplitude_floor=0.05)
        ds_dt = airy_phase_time_derivative(p, grid.points, 0.3)
        field, usable = hj_residual_field(polar, np.zeros(grid.count), ds_dt, AU)
        assert field.shape == usable.shape == grid.points.shape
        assert usable.any() and not usable.all()
        assert np.max(np.abs(field[usable])) < 1e-8

    def test_continuity_between_nearby_times(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 8001)
        dt = 1e-3
        a = airy_polar(p, grid, 0.3 - 0.5 * dt, amplitude_floor=0.05)
        b = airy_polar(p, grid, 0.3 + 0.5 * dt, amplitude_floor=0.05)
        assert continuity_residual(a, b, dt, AU) < 1e-5

    def test_continuity_rejects_forms_on_different_grids(self):
        p = params(1.0)
        a = airy_polar(p, make_axis_grid(-6.0, 2.0, 2001), 0.3)
        b = airy_polar(p, make_axis_grid(-6.0, 2.0, 1001), 0.3)
        with pytest.raises(ValueError):
            continuity_residual(a, b, 1e-3, AU)

    def test_euler_balance_with_closed_form_quantum_potential(self):
        p = params(1.0)
        grid = make_axis_grid(-6.0, 2.0, 8001)
        dt = 1e-3
        t = 0.3
        a = airy_polar(p, grid, t - 0.5 * dt, amplitude_floor=0.05)
        b = airy_polar(p, grid, t + 0.5 * dt, amplitude_floor=0.05)
        quantum = airy_bohm_closed_form(p, grid, t)
        assert euler_residual(a, b, dt, quantum, AU) < 1e-5
