"""Hydrogen eigenstates: energies, radial functions, peaks, orthonormality."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hydrobohm.hydrogen as hydrogen
from hydrobohm import (
    PhysicalConstants,
    atomic_units,
    energy_level,
    make_radial_grid,
    node_mask,
    overlap,
    psi,
    radial_R,
    radial_R_derivatives,
    radial_distribution,
    radial_peaks,
    schrodinger_residual,
    si_units,
    state,
    spherical_harmonic,
)
from hydrobohm.campaigns import BOHR_RADII_TOL

import oracles

AU = atomic_units()


class TestEnergyLevels:
    def test_ground_state_energy(self):
        assert energy_level(1, AU) == -0.5

    def test_rydberg_ratio_is_exact_with_rational_constants(self):
        exact = PhysicalConstants(hbar=Fraction(1), mass=Fraction(1), coulomb=Fraction(1))
        ground = energy_level(1, exact)
        assert ground == Fraction(-1, 2)
        for n in range(1, 21):
            assert energy_level(n, exact) == Fraction(-1, 2 * n * n)
            assert energy_level(n, exact) / ground == Fraction(1, n * n)

    def test_float_ratio_within_rounding(self):
        for n in range(1, 21):
            ratio = energy_level(n, AU) / energy_level(1, AU)
            assert abs(ratio - 1.0 / n**2) < 1e-12

    def test_scaling_with_constants(self):
        # E_1 = -hartree / 2 in any unit system.
        constants = PhysicalConstants(hbar=1.0, mass=1.0, coulomb=2.0)
        assert energy_level(1, constants) == pytest.approx(-2.0)
        assert energy_level(2, constants) == pytest.approx(-0.5)

    def test_rejects_invalid_n(self):
        with pytest.raises(ValueError):
            energy_level(0, AU)


class TestRadialFunctions:
    def test_ground_state_closed_form(self):
        r = np.linspace(0.1, 10.0, 40)
        np.testing.assert_allclose(radial_R(state(1, 0), r), 2.0 * np.exp(-r), rtol=1e-14)

    def test_two_p_value_at_two_bohr(self):
        # R_21(2a) = (1/sqrt(6)) * e^{-1} exactly.
        expected = math.exp(-1.0) / math.sqrt(6.0)
        assert expected == pytest.approx(0.15018615295504262, rel=1e-15)
        assert float(radial_R(state(2, 1), 2.0)) == pytest.approx(expected, rel=1e-13)

    def test_two_s_closed_form(self):
        r = np.linspace(0.1, 12.0, 30)
        expected = (1.0 / math.sqrt(2.0)) * (1.0 - r / 2.0) * np.exp(-r / 2.0)
        np.testing.assert_allclose(radial_R(state(2, 0), r), expected, rtol=1e-13, atol=1e-16)

    def test_normalization_by_quadrature(self):
        for n, l in [(1, 0), (2, 1), (3, 0), (4, 2), (5, 4)]:
            spec = state(n, l)
            norm = oracles.gauss_legendre_integral(
                lambda r: r**2 * np.asarray(radial_R(spec, r)) ** 2,
                0.0,
                40.0 + 10.0 * n**2,
                points=400,
            )
            assert norm == pytest.approx(1.0, rel=1e-10)

    def test_node_count_matches_degree(self):
        r = np.linspace(0.05, 120.0, 20001)
        for n, l in [(1, 0), (2, 0), (3, 1), (5, 0), (6, 3)]:
            values = np.asarray(radial_R(state(n, l), r))
            signs = np.sign(values)
            crossings = np.count_nonzero(signs[1:] != signs[:-1])
            assert crossings == n - l - 1

    def test_derivatives_match_central_differences(self):
        r = np.linspace(0.5, 25.0, 50)
        h1, h2 = 1e-5, 1e-4
        for n, l in [(1, 0), (3, 1), (5, 2)]:
            spec = state(n, l)
            value, d1, d2 = radial_R_derivatives(spec, r)
            np.testing.assert_allclose(value, radial_R(spec, r), rtol=1e-14)
            fd1 = (radial_R(spec, r + h1) - radial_R(spec, r - h1)) / (2.0 * h1)
            fd2 = (radial_R(spec, r + h2) - 2.0 * value + radial_R(spec, r - h2)) / h2**2
            np.testing.assert_allclose(d1, fd1, rtol=1e-8, atol=1e-10)
            np.testing.assert_allclose(d2, fd2, rtol=1e-6, atol=3e-7)

    def test_scale_invariance_under_unit_change(self):
        # With a = 1/2 every radial feature contracts by 2 and R rescales
        # by a^{-3/2}; check pointwise against the atomic-units curve.
        constants = PhysicalConstants(hbar=1.0, mass=1.0, coulomb=2.0)
        a = constants.bohr_radius
        r = np.linspace(0.1, 8.0, 25)
        scaled = radial_R(state(3, 1, constants=constants), r * a)
        reference = np.asarray(radial_R(state(3, 1), r)) * a ** (-1.5)
        np.testing.assert_allclose(scaled, reference, rtol=1e-13)


class TestFullWavefunction:
    def test_factorizes_into_radial_and_angular_parts(self):
        spec = state(3, 2, -1)
        r, theta, phi = 2.5, 0.9, 0.4
        expected = float(radial_R(spec, r)) * spherical_harmonic(2, -1, theta, phi)
        assert psi(spec, r, theta, phi) == pytest.approx(expected, rel=1e-13)

    def test_full_normalization(self):
        spec = state(2, 1, 1)
        nodes, weights = np.polynomial.legendre.leggauss(64)
        theta = np.arccos(nodes)
        total = 0.0
        for ct_weight, th in zip(weights, theta):
            radial = oracles.gauss_legendre_integral(
                lambda r, th=th: r**2 * np.abs(psi(spec, r, th, 0.0)) ** 2, 0.0, 60.0, points=300
            )
            total += ct_weight * radial
        assert total * 2.0 * math.pi == pytest.approx(1.0, rel=1e-9)


class TestSchrodingerResidual:
    def test_small_for_eigenpairs(self):
        grid = make_radial_grid(0.05, 240.0, 4000, law="logarithmic")
        for n, l in [(1, 0), (2, 1), (4, 0), (7, 3), (10, 9)]:
            assert schrodinger_residual(state(n, l), grid) < 1e-9

    def test_detects_wrong_energy(self):
        grid = make_radial_grid(0.05, 60.0, 2000, law="logarithmic")
        spec = state(2, 1)
        wrong = energy_level(2, AU) * (1.0 + 1e-3)
        assert schrodinger_residual(spec, grid, energy=wrong) > 1e-4


class TestRadialDistribution:
    def test_distribution_is_r2_R2(self):
        grid = make_radial_grid(0.1, 30.0, 200)
        spec = state(3, 2)
        values = radial_distribution(spec, grid)
        expected = grid.points**2 * np.asarray(radial_R(spec, grid.points)) ** 2
        np.testing.assert_allclose(values, expected, rtol=1e-14)

    def test_dP_dr_matches_difference_quotient(self):
        grid = make_radial_grid(0.5, 20.0, 100)
        spec = state(3, 1)
        slope = oracles.distribution_slope(spec, grid.points)
        h = 1e-6
        plus = (grid.points + h) ** 2 * np.asarray(radial_R(spec, grid.points + h)) ** 2
        minus = (grid.points - h) ** 2 * np.asarray(radial_R(spec, grid.points - h)) ** 2
        np.testing.assert_allclose(slope, (plus - minus) / (2.0 * h), rtol=1e-7, atol=1e-9)


class TestRadialPeaks:
    def test_circular_states_peak_at_n_squared(self):
        for n in range(1, 11):
            peaks = radial_peaks(state(n, n - 1))
            assert peaks.size == 1
            assert abs(peaks[0] - n**2) / n**2 < 1e-8

    def test_multi_peak_state_against_dense_scan(self):
        # The scan-and-tree oracle finds every peak of a non-circular state.
        spec = state(3, 0)
        peaks = oracles.scan_peaks(spec)
        r = np.linspace(0.05, 40.0, 400001)
        dense = oracles.local_maxima(r, r**2 * np.asarray(radial_R(spec, r)) ** 2)
        assert len(dense) == len(peaks) == 3
        for found, scanned in zip(peaks, dense):
            assert abs(found - scanned) < 2.0 * (r[1] - r[0])

    def test_three_s_peak_positions(self):
        np.testing.assert_allclose(
            oracles.scan_peaks(state(3, 0)), [0.740037, 4.18593, 13.074033], rtol=1e-5
        )

    def test_sign_helper_agrees_with_the_normalized_slope_to_n_30(self):
        for n in range(1, 31):
            for l in range(n):
                spec = state(n, l)
                scan = oracles.peak_scan(spec)
                with np.errstate(under="ignore"):
                    slope = oracles.distribution_slope(spec, scan)
                checked = np.isfinite(slope) & (slope != 0.0)
                assert np.count_nonzero(checked) > scan.size // 2, (n, l)
                sign = np.sign(oracles.slope_sign(spec, scan))
                np.testing.assert_array_equal(sign[checked], np.sign(slope[checked]), err_msg=f"{(n, l)}")

    @pytest.mark.parametrize("n, l", [(3, 0), (100, 98), (300, 0)])
    def test_non_circular_states_are_refused(self, n, l):
        # (300, 0) overflowed in the Laguerre recurrences of the general
        # path; it is refused before any evaluation, so no warning is raised.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="supports only circular states"):
                radial_peaks(state(n, l))

    @pytest.mark.parametrize("n", [140, 200, 500, 1000])
    def test_circular_peaks_past_the_power_overflow(self, n):
        # rho**l of the normalized slope overflows from n of about 130 on.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peaks = radial_peaks(state(n, n - 1))
        assert abs(peaks[-1] - n * n) / (n * n) <= BOHR_RADII_TOL

    def test_peaks_scale_with_bohr_radius(self):
        constants = PhysicalConstants(hbar=1.0, mass=1.0, coulomb=2.0)
        scaled = radial_peaks(state(4, 3, constants=constants))
        assert scaled[0] == pytest.approx(16.0 * constants.bohr_radius, rel=1e-8)

    def test_circular_path_keeps_the_bits_of_the_full_scan(self):
        # oracles.scan_peaks, the full scan with midpoint trees, is the oracle.
        scaled = PhysicalConstants(hbar=1.3, mass=0.7, coulomb=2.9)
        specs = [state(n, n - 1) for n in [*range(1, 1001), 2000, 5000, 10000]]
        specs += [state(37, 36, constants=scaled)]
        for spec in specs:
            circular = radial_peaks(spec)
            assert circular.dtype == np.float64 and circular.size == 1, spec.n
            assert circular.tobytes() == oracles.scan_peaks(spec).tobytes(), (spec.n, spec.constants)

    @pytest.mark.parametrize("shift", ["first", -37, -3, 3, 37, "last"])
    def test_circular_window_widens_from_a_wrong_centre(self, shift, monkeypatch):
        nearest = hydrogen._nearest_scan_index

        def wrong(r_lo, r_hi, num, r):
            if shift == "first":
                return 0
            if shift == "last":
                return num - 1
            return nearest(r_lo, r_hi, num, r) + shift

        monkeypatch.setattr(hydrogen, "_nearest_scan_index", wrong)
        for n in (1, 2, 100):
            spec = state(n, n - 1)
            assert radial_peaks(spec).tobytes() == oracles.scan_peaks(spec).tobytes(), n

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 10000])
    @pytest.mark.parametrize("constants", [AU, PhysicalConstants(hbar=1.3, mass=0.7, coulomb=2.9)])
    def test_peak_scan_is_geomspace(self, n, constants):
        spec = state(n, 0, constants=constants)
        r_lo, r_hi, num = hydrogen._peak_scan_range(spec)
        assert oracles.peak_scan(spec).tobytes() == np.geomspace(r_lo, r_hi, num).tobytes()

    @pytest.mark.parametrize("n", [1, 100, 10000])
    def test_scan_window_is_a_slice_of_the_full_scan(self, n):
        r_lo, r_hi, num = hydrogen._peak_scan_range(state(n, n - 1))
        full = hydrogen._peak_scan_window(r_lo, r_hi, num, 0, num)
        rng = np.random.default_rng(n)
        windows = [(0, 1), (0, 2), (num - 1, num), (num - 2, num), (1, num - 1), (0, num)]
        for _ in range(200):
            lo = int(rng.integers(0, num))
            windows.append((lo, int(rng.integers(lo + 1, min(lo + 64, num) + 1))))
        for lo, hi in windows:
            window = hydrogen._peak_scan_window(r_lo, r_hi, num, lo, hi)
            assert window.tobytes() == full[lo:hi].tobytes(), (lo, hi)


class TestNodeMask:
    def test_masks_node_neighborhood_and_tail(self):
        r = np.linspace(0.1, 40.0, 2001)
        spec = state(2, 0)
        mask = node_mask(spec, r, floor=1e-3)
        node_zone = np.abs(r - 2.0) < 1e-3
        assert mask[node_zone].all()
        assert not mask[np.abs(r - 1.0) < 0.05].any()
        assert mask[-1]

    def test_nodeless_state_keeps_core_points(self):
        r = np.linspace(0.1, 10.0, 101)
        assert not node_mask(state(1, 0), r).any()

    def test_state_that_underflows_everywhere_is_fully_masked(self):
        # R_10 underflows to 0 at every point of [800, 900] a, so no point
        # clears the floor: all are masked, and the residual has none to read.
        grid = make_radial_grid(800.0, 900.0, 50)
        assert node_mask(state(1, 0), grid.points).tolist() == [True] * 50
        with pytest.raises(ValueError, match="no usable interior points"):
            schrodinger_residual(state(1, 0), grid)


class TestOverlap:
    def test_orthonormality_for_low_states(self):
        states = [
            state(n, l, m)
            for n in range(1, 4)
            for l in range(n)
            for m in range(-l, l + 1)
        ]
        for i, left in enumerate(states):
            for right in states[i:]:
                value = overlap(left, right)
                expected = 1.0 if left is right else 0.0
                assert abs(value - expected) < 1e-6

    def test_overlap_is_conjugate_symmetric(self):
        a, b = state(3, 1, 1), state(4, 1, 1)
        assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-12)

    @pytest.mark.pins
    def test_gram_bits_for_states_up_to_n4(self):
        # The i <= j pairs of acceptance criterion 6, in its order.
        states = [
            state(n, l, m) for n in range(1, 5) for l in range(n) for m in range(-l, l + 1)
        ]
        values = [overlap(left, right) for i, left in enumerate(states) for right in states[i:]]
        assert len(values) == 465
        assert _complex_bits(values) == (
            "c31ad250af6af9c4268a829b89554d7ea38252794170c03c396f717aceb9a1b0"
        )

    @pytest.mark.pins
    def test_overlap_bits_in_si_units(self):
        si = si_units()
        value = overlap(state(3, 1, -1, si), state(4, 1, -1, si))
        assert _complex_bits([value]) == (
            "4a9d79c728950c79ef34423a79558c6fcf2719065862f82b4f4cbb3e1f76a367"
        )


class TestOverlapCaches:
    # a = 1/2 (mass 2) at max n 4 shares r_max = 60 with a = 1 at max n 2, so
    # (2, 1, 0) meets the same radial nodes in both: a cache that dropped a
    # would hand one unit system the other's R_21.
    PAIRS = [
        ((2, 1, 0), (1, 0, 0)),
        ((4, 0, 0), (2, 1, 0)),
        ((2, 1, 1), (3, 1, 1)),
        ((4, 3, -2), (4, 3, -2)),
    ]
    UNITS = [atomic_units(), si_units(), PhysicalConstants(1.0, 2.0, 1.0)]

    @staticmethod
    def _clear():
        hydrogen._overlap_radial.cache_clear()
        hydrogen._overlap_angular.cache_clear()

    @staticmethod
    def _overlap(a, b, constants):
        return overlap(state(*a, constants=constants), state(*b, constants=constants))

    def _values(self, constants):
        return [self._overlap(a, b, constants) for a, b in self.PAIRS]

    def test_cached_arrays_are_read_only(self):
        rule = hydrogen._overlap_rule()
        cached = list(rule) + [
            hydrogen._overlap_radial(2, 1, 1.0, 60.0),
            hydrogen._overlap_angular(1, 1),
        ]
        for values in cached:
            with pytest.raises(ValueError):
                values[(0,) * values.ndim] = 0.0

    def test_interleaved_unit_systems_match_separate_runs(self):
        alone = []
        for constants in self.UNITS:
            self._clear()
            alone.append(self._values(constants))
        self._clear()
        interleaved = [[] for _ in self.UNITS]
        for a, b in self.PAIRS:
            for values, constants in zip(interleaved, self.UNITS):
                values.append(self._overlap(a, b, constants))
        assert interleaved == alone
        assert self._values(self.UNITS[1]) == alone[1]

    def test_mismatched_constants_still_raise(self):
        overlap(state(2, 1, 0), state(2, 1, 0))
        with pytest.raises(ValueError, match="same constants"):
            overlap(state(2, 1, 0), state(2, 1, 0, constants=si_units()))
        with pytest.raises(ValueError, match="same constants"):
            overlap(state(1, 0, 0, constants=PhysicalConstants(1.0, 2.0, 1.0)), state(1, 0, 0))

    def test_import_builds_no_quadrature_rule(self):
        src = Path(hydrogen.__file__).resolve().parents[1]
        probe = (
            "import numpy as np\n"
            "builds = []\n"
            "leggauss = np.polynomial.legendre.leggauss\n"
            "np.polynomial.legendre.leggauss = lambda *a: builds.append(a) or leggauss(*a)\n"
            "import hydrobohm, hydrobohm.hydrogen as h\n"
            "print(len(builds), h._overlap_rule.cache_info().currsize)\n"
            "hydrobohm.overlap(hydrobohm.state(1, 0), hydrobohm.state(2, 0))\n"
            "hydrobohm.overlap(hydrobohm.state(3, 1), hydrobohm.state(2, 1))\n"
            "print(len(builds), h._overlap_rule.cache_info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.stdout.split("\n")[:2] == ["0 0", "2 1"]


def _complex_bits(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.complex128).tobytes()).hexdigest()
