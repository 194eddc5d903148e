"""Hydrogen eigenstates: energies, radial functions, peaks, orthonormality."""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hydrobohm.hydrogen as hydrogen
import hydrobohm.specfun as specfun
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


def _states(n_max):
    return [state(n, l, m) for n in range(1, n_max + 1) for l in range(n) for m in range(-l, l + 1)]


def _gram_errors(pairs):
    """|<a|b> - delta_ab| for each pair of states."""
    return [abs(overlap(left, right) - (left.qn == right.qn)) for left, right in pairs]


# State cap of the seeded sample: past it spherical_harmonic refuses the state.
SAMPLE_HARMONIC_CAP = specfun.HARMONIC_LM_MAX
# Worst sampled error, 8.4e-13 at <94 93 -24|94 93 -24>, with headroom.
SAMPLE_GRAM_TOL = 2e-12


def _sampled_pairs(draws, seed=2026, n_max=100):
    """Seeded pairs of states with n <= n_max and l + |m| <= SAMPLE_HARMONIC_CAP.

    One in four is a state with itself, one a state against another n with
    the same (l, m), one against another l with the same (n, m), and one
    two independent draws: the radial and polar sums are tested, not only
    pairs whose phi sum is 0.
    """
    rng = random.Random(seed)

    def draw():
        while True:
            n = rng.randint(1, n_max)
            l = rng.randrange(n)
            m = rng.randint(-l, l)
            if l + abs(m) <= SAMPLE_HARMONIC_CAP:
                return n, l, m

    pairs = []
    for _ in range(draws):
        n, l, m = draw()
        partner = (
            (n, l, m),
            (rng.randint(l + 1, n_max), l, m),
            (n, rng.randint(abs(m), n - 1), m),
            draw(),
        )[rng.randrange(4)]
        pairs.append((state(n, l, m), state(*partner)))
    return pairs


class TestOverlap:
    def test_orthonormality_for_low_states(self):
        states = _states(3)
        assert max(_gram_errors((left, right) for i, left in enumerate(states) for right in states[i:])) < 1e-12

    def test_every_entry_of_the_gram_matrix_up_to_n10_is_exact(self):
        # The 385 states and 74,305 entries README times.
        states = _states(10)
        errors = _gram_errors((left, right) for i, left in enumerate(states) for right in states[i:])
        assert len(errors) == 74305
        assert max(errors) < 1e-12

    def test_seeded_sample_up_to_n100_is_within_its_bound(self):
        pairs = _sampled_pairs(3000)
        assert max(max(left.n, right.n) for left, right in pairs) == 100
        assert max(_gram_errors(pairs)) < SAMPLE_GRAM_TOL

    def test_the_largest_radial_rule_is_exact(self):
        # <185 0 0|186 0 0> takes 186 Gauss-Laguerre nodes, the most that
        # numpy's laggauss forms without overflow.
        assert abs(overlap(state(185, 0), state(186, 0))) < 1e-12

    def test_pairs_past_the_largest_radial_rule_are_refused(self):
        with pytest.raises(ValueError, match=r"n_a \+ n_b <= 371, got 186 \+ 186"):
            overlap(state(186, 0), state(186, 0))

    def test_states_past_the_harmonic_limit_are_refused(self):
        assert abs(overlap(state(100, 99, 74), state(100, 99, 74)) - 1) < SAMPLE_GRAM_TOL
        with pytest.raises(ValueError, match=r"l \+ \|m\| <= 173"):
            overlap(state(100, 99, 75), state(100, 99, 75))

    @pytest.mark.parametrize(
        "axis, bra, ket, expected",
        [
            (0, (10, 0, 0), (10, 0, 0), 1.0),  # one node short in r: error 0.50
            (1, (4, 3, 2), (4, 3, 2), 1.0),  # one node short in cos(theta): error 0.30
            (2, (5, 4, 3), (5, 4, -3), 0.0),  # one point short in phi: error 1.0
        ],
    )
    def test_a_rule_one_node_short_fails(self, monkeypatch, axis, bra, ket, expected):
        exact = abs(overlap(state(*bra), state(*ket)) - expected)
        assert exact < 1e-12
        full = hydrogen._rule_sizes

        def one_short(qa, qb):
            sizes = list(full(qa, qb))
            sizes[axis] -= 1
            return tuple(sizes)

        monkeypatch.setattr(hydrogen, "_rule_sizes", one_short)
        assert abs(overlap(state(*bra), state(*ket)) - expected) > 0.25

    def test_overlap_is_conjugate_symmetric(self):
        a, b = state(3, 1, 1), state(4, 1, 1)
        assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-12)

    @pytest.mark.pins
    def test_gram_bits_for_states_up_to_n4(self):
        # The i <= j pairs of acceptance criterion 6, in its order.
        states = _states(4)
        values = [overlap(left, right) for i, left in enumerate(states) for right in states[i:]]
        assert len(values) == 465
        assert _complex_bits(values) == (
            "f366f3bdd853c7e9f5b389071f69358a8036f4417f869c4041292f10f2afeb1e"
        )

    @pytest.mark.pins
    def test_overlap_bits_in_si_units(self):
        si = si_units()
        value = overlap(state(3, 1, -1, si), state(4, 1, -1, si))
        assert _complex_bits([value]) == (
            "451f7ffdda159e40b51bc4fa69e577ca8ad8ba9b767ad5242e2f535d9b69c4e6"
        )


class TestOverlapCaches:
    # With a = 3/4, <1 0 0|2 1 0> puts R_10 on the rule of <1 0 0|1 0 0> in
    # atomic units: 2 nodes and beta = 2 / a' = (1 + 1/2) / a.  A cache that
    # dropped a would hand one unit system the other's R_10.
    PAIRS = [
        ((2, 1, 0), (1, 0, 0)),
        ((1, 0, 0), (1, 0, 0)),
        ((4, 0, 0), (2, 1, 0)),
        ((2, 1, 1), (3, 1, 1)),
        ((4, 3, -2), (4, 3, -2)),
    ]
    UNITS = [atomic_units(), si_units(), PhysicalConstants(1.5, 3.0, 1.0)]
    CACHES = ("_laguerre_rule", "_legendre_rule", "_radial_factor", "_harmonic_factor")

    def _clear(self):
        for name in self.CACHES:
            getattr(hydrogen, name).cache_clear()

    @staticmethod
    def _overlap(a, b, constants):
        return overlap(state(*a, constants=constants), state(*b, constants=constants))

    def _values(self, constants):
        return [self._overlap(a, b, constants) for a, b in self.PAIRS]

    def test_cached_arrays_are_read_only(self):
        cached = [
            *hydrogen._laguerre_rule(3),
            *hydrogen._legendre_rule(2),
            hydrogen._radial_factor(2, 1, 1.0, 3, 1.0),
            hydrogen._harmonic_factor(1, 1, 2, 3),
        ]
        for values in cached:
            with pytest.raises(ValueError):
                values[(0,) * values.ndim] = 0.0

    def test_interleaved_unit_systems_match_separate_runs(self):
        assert float(self.UNITS[2].bohr_radius) == 0.75
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

    def test_cached_factors_keep_the_bits_of_the_allocating_body(self):
        # Unpinned: overlap must equal its kept body on any platform.
        states = _states(4)
        pairs = [(left, right) for i, left in enumerate(states) for right in states[i:]]
        si = si_units()
        pairs.append((state(3, 1, -1, si), state(4, 1, -1, si)))
        for constants in self.UNITS:
            pairs.extend((state(*a, constants=constants), state(*b, constants=constants)) for a, b in self.PAIRS)
        pairs.extend(_sampled_pairs(20))
        self._clear()
        values = [overlap(left, right) for left, right in pairs]
        expected = [oracles.overlap_reference(left, right) for left, right in pairs]
        assert np.asarray(values).tobytes() == np.asarray(expected).tobytes()

    def test_equal_constants_in_distinct_instances_are_accepted(self):
        for constants, twin in (
            (atomic_units(), PhysicalConstants(1.0, 1.0, 1.0)),
            (si_units(), dataclasses.replace(si_units())),
        ):
            assert twin is not constants and twin == constants
            left = state(3, 1, 1, constants)
            assert overlap(left, state(4, 1, 1, twin)) == overlap(left, state(4, 1, 1, constants))

    def test_mismatched_constants_still_raise(self):
        overlap(state(2, 1, 0), state(2, 1, 0))
        with pytest.raises(ValueError, match="same constants"):
            overlap(state(2, 1, 0), state(2, 1, 0, constants=si_units()))
        with pytest.raises(ValueError, match="same constants"):
            overlap(state(1, 0, 0, constants=PhysicalConstants(1.0, 2.0, 1.0)), state(1, 0, 0))

    def test_harmonic_factors_are_evicted_by_bytes(self, monkeypatch):
        factor = hydrogen._harmonic_factor
        factor.cache_clear()
        small = [(1, m, 2, 3) for m in (-1, 0, 1)]  # 2 x 3 complex values: 96 bytes each
        monkeypatch.setattr(hydrogen, "HARMONIC_CACHE_BYTES", 3 * 96)
        first = [factor(*key) for key in small]
        assert list(factor.cache_entries) == small
        assert factor(*small[0]) is first[0]  # a hit, now the most recent
        factor(2, 0, 2, 4)  # 128 bytes: the two least recent go
        assert list(factor.cache_entries) == [small[0], (2, 0, 2, 4)]
        assert sum(values.nbytes for values in factor.cache_entries.values()) <= 3 * 96
        rebuilt = factor(*small[1])
        assert rebuilt is not first[1] and rebuilt.tobytes() == first[1].tobytes()
        # Larger than the whole budget: returned, not kept, and nothing dropped.
        held = list(factor.cache_entries)
        assert factor(3, 1, 4, 9).nbytes == 576
        assert list(factor.cache_entries) == held
        factor.cache_clear()

    def test_every_harmonic_factor_of_the_gram_matrix_up_to_n10_is_kept(self):
        qns = [spec.qn for spec in _states(10)]
        keys = set()
        for i, qa in enumerate(qns):
            for qb in qns[i:]:
                _, polar, azimuthal = hydrogen._rule_sizes(qa, qb)
                keys.update(((qa.l, qa.m, polar, azimuthal), (qb.l, qb.m, polar, azimuthal)))
        factor = hydrogen._harmonic_factor
        factor.cache_clear()
        for key in keys:
            factor(*key)
        assert len(factor.cache_entries) == len(keys) == 4605
        assert max(values.nbytes for values in factor.cache_entries.values()) == 3040
        assert sum(values.nbytes for values in factor.cache_entries.values()) <= hydrogen.HARMONIC_CACHE_BYTES / 2

    def test_import_builds_no_quadrature_rule(self):
        src = Path(hydrogen.__file__).resolve().parents[1]
        probe = (
            "import numpy as np\n"
            "builds = []\n"
            "for module, name in ((np.polynomial.legendre, 'leggauss'), (np.polynomial.laguerre, 'laggauss')):\n"
            "    rule = getattr(module, name)\n"
            "    setattr(module, name, lambda size, rule=rule, name=name: builds.append((name, size)) or rule(size))\n"
            "import hydrobohm, hydrobohm.hydrogen as h\n"
            "print(sorted(builds))\n"
            "hydrobohm.overlap(hydrobohm.state(1, 0), hydrobohm.state(2, 0))\n"
            "hydrobohm.overlap(hydrobohm.state(3, 1), hydrobohm.state(2, 1))\n"
            "hydrobohm.overlap(hydrobohm.state(3, 1), hydrobohm.state(2, 1))\n"
            "print(sorted(builds))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert result.stdout.split("\n")[:2] == [
            "[]",
            "[('laggauss', 2), ('laggauss', 3), ('leggauss', 1), ('leggauss', 2)]",
        ]


class TestStateInterning:
    def test_plain_int_states_in_atomic_units_are_interned(self):
        assert state(2, 1, -1) is state(2, 1, -1)
        assert state(2, 1, -1, atomic_units()) is state(2, 1, -1)
        assert state(2, 1, -1, constants=atomic_units()) is state(2, 1, -1)
        assert state(2, 1) is state(2, 1, 0)

    def test_other_arguments_take_the_validating_path(self):
        interned = state(2, 1, -1)
        before = hydrogen._atomic_state.cache_info()
        numpy_int = state(np.int64(2), 1, -1)
        assert numpy_int == interned and numpy_int is not interned
        assert numpy_int is not state(np.int64(2), 1, -1)
        assert state(True, 0).n is True and state(True, 0) is not state(True, 0)
        si = si_units()
        assert state(2, 1, -1, si) is not state(2, 1, -1, si)
        assert state(2, 1, -1, PhysicalConstants(1.0, 1.0, 1.0)) == interned
        assert hydrogen._atomic_state.cache_info() == before

    @pytest.mark.parametrize(
        "args, fragment",
        [((1, 1), "l <= n - 1"), ((2.0, 1, 0), "n must be an integer"), ((1, 0, 2), "|m| <= l")],
    )
    def test_invalid_triples_raise_on_every_call(self, args, fragment):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                state(*args)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] and fragment in messages[0]

    @pytest.mark.parametrize("constants", [0, {}, "x"])
    def test_constants_that_are_not_physical_constants_are_refused(self, constants):
        with pytest.raises(ValueError, match=r"constants must be None or a PhysicalConstants"):
            state(1, 0, 0, constants)

    def test_interning_cache_holds_4096_states(self):
        assert hydrogen._atomic_state.cache_parameters()["maxsize"] == 4096


def _complex_bits(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.complex128).tobytes()).hexdigest()
