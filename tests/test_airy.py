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
    si_units,
)
from hydrobohm.airy import _packet_field

import oracles

AU = atomic_units()


def _same_bits(a, b) -> bool:
    """Equal bytes; for longdouble types, equal values, signs and NaN places.

    A longdouble element carries padding bytes that no arithmetic writes,
    so those dtypes are compared part by part instead.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype not in (np.dtype(np.longdouble), np.dtype(np.clongdouble)):
        return a.tobytes() == b.tobytes()
    parts = [(a.real, b.real), (a.imag, b.imag)] if np.iscomplexobj(a) else [(a, b)]
    return all(
        np.array_equal(p, q, equal_nan=True) and np.array_equal(np.signbit(p), np.signbit(q))
        for p, q in parts
    )


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

    @staticmethod
    def _assert_field_bits(p, x, t, envelope):
        assert _same_bits(airy_phase(p, x, t), oracles.airy_phase_reference(p, x, t))
        assert _same_bits(_packet_field(p, x, t, envelope), oracles.packet_field_reference(p, x, t, envelope))

    @pytest.mark.parametrize("t", [1e-14, -1e-14, 0.0, -0.0])
    def test_si_units(self, t):
        # beta = 1/nm, so the grid spans u in [-15, 10]; at |t| = 1e-14 s
        # the packet has drifted 0.3 nm and S/hbar spans about 14 radians.
        constants = si_units()
        p = AiryPacketParams(float(constants.hbar) ** (2.0 / 3.0) * 1e9, constants)
        x = make_axis_grid(-15e-9, 10e-9, 2001).points
        envelope = airy_ai(airy_argument(p, x, t))
        self._assert_field_bits(p, x, t, envelope)
        assert _same_bits(airy_psi(p, x, t), oracles.packet_field_reference(p, x, t, envelope))

    @pytest.mark.parametrize("t", [1e-300, -1e-300, 0.0, -0.0])
    def test_zero_and_subnormal_phases(self, t):
        # t^2 underflows, so S = B^3 t x / 2m: +-0 at x = +-0 (and on the
        # whole grid at t = +-0), subnormal for |x| below about 4e-8.
        p = params(1.0)
        x = np.concatenate([np.linspace(-1e-7, 1e-7, 401), [0.0, -0.0, 5e-324, -5e-324, 1e-310]])
        phase = airy_phase(p, x, t)
        assert np.any((phase == 0.0) & np.signbit(phase))
        assert np.any((phase == 0.0) & ~np.signbit(phase))
        if t != 0.0:
            assert np.count_nonzero((phase != 0.0) & (np.abs(phase) < np.finfo(float).tiny)) > 100
        envelope = airy_ai(airy_argument(p, x, t))
        # A signed-zero envelope carries the sign of a zero phase into the field.
        envelope[::3] = -0.0
        envelope[1::3] = 0.0
        self._assert_field_bits(p, x, t, envelope)

    @pytest.mark.parametrize("strength, t", [(0.5, 0.3), (1.0, -0.0), (2.0, -1.0)])
    def test_longdouble_points(self, strength, t):
        p = AiryPacketParams(strength, dataclasses.replace(AU, hbar=0.7, mass=1.9))
        x = make_axis_grid(-5.0, 3.0, 1001).points.astype(np.longdouble)
        x += np.random.default_rng(3).uniform(-1e-17, 1e-17, x.size).astype(np.longdouble)
        envelope = airy_ai(airy_argument(p, x, t))
        assert envelope.dtype == np.longdouble
        self._assert_field_bits(p, x, t, envelope)
        field = airy_psi(p, x, t)
        assert field.dtype == np.clongdouble
        assert _same_bits(field, oracles.packet_field_reference(p, x, t, envelope))


class TestPointDtypes:
    """airy_psi and airy_polar read any real points in airy_ai's dtype."""

    def test_float32_points_give_the_float64_bits(self):
        p = params(1.0)
        x = np.linspace(-3.0, 3.0, 7, dtype=np.float32)
        field = airy_psi(p, x, 0.3)
        assert field.dtype == np.complex128
        assert _same_bits(field, airy_psi(p, x.astype(np.float64), 0.3))
        grid = np.linspace(-6.0, 2.0, 401, dtype=np.float32)
        narrow, wide = airy_polar(p, grid, 0.3), airy_polar(p, grid.astype(np.float64), 0.3)
        for name in ("coords", "amplitude", "phase", "valid", "amplitude_d2"):
            assert _same_bits(getattr(narrow, name), getattr(wide, name)), name

    def test_integer_points_give_the_float64_bits(self):
        p = params(2.0)
        x = np.arange(-4, 3)
        assert _same_bits(airy_psi(p, x, -0.5), airy_psi(p, x.astype(np.float64), -0.5))
        assert _same_bits(airy_psi(p, 1, 0.5), airy_psi(p, 1.0, 0.5))


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
