"""Units, quantum-number validation and grid containers."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from hydrobohm import (
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


class TestPhysicalConstants:
    def test_atomic_units_are_unity(self):
        constants = atomic_units()
        assert constants.hbar == 1.0
        assert constants.mass == 1.0
        assert constants.coulomb == 1.0
        assert constants.bohr_radius == 1.0
        assert constants.hartree == 1.0

    def test_si_units_match_codata_values(self):
        constants = si_units()
        assert constants.hbar == pytest.approx(1.054571817e-34, rel=1e-9)
        assert constants.mass == pytest.approx(9.1093837015e-31, rel=1e-9)
        # e^2 / (4 pi eps0) = 2.307077e-28 J m
        assert constants.coulomb == pytest.approx(2.3070775523e-28, rel=1e-6)
        assert constants.bohr_radius == pytest.approx(5.29177210903e-11, rel=1e-6)
        assert constants.hartree == pytest.approx(4.3597447222071e-18, rel=1e-6)

    def test_derived_scales(self):
        constants = PhysicalConstants(hbar=2.0, mass=3.0, coulomb=5.0)
        assert constants.bohr_radius == pytest.approx(4.0 / 15.0)
        assert constants.hartree == pytest.approx(5.0 / (4.0 / 15.0))

    def test_exact_rational_fields_stay_exact(self):
        constants = PhysicalConstants(
            hbar=Fraction(1), mass=Fraction(1), coulomb=Fraction(1, 2)
        )
        assert constants.bohr_radius == Fraction(2)
        assert constants.hartree == Fraction(1, 4)

    @pytest.mark.parametrize("field", ["hbar", "mass", "coulomb"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_fields(self, field, bad):
        values = {"hbar": 1.0, "mass": 1.0, "coulomb": 1.0, field: bad}
        with pytest.raises(ValueError, match=field):
            PhysicalConstants(**values)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            atomic_units().hbar = 2.0

    @pytest.mark.parametrize("helper", [atomic_units, si_units])
    def test_unit_helpers_share_one_frozen_instance(self, helper):
        assert helper() is helper()
        hbar = helper().hbar
        for name in ("hbar", "mass", "coulomb"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(helper(), name, 2.0)
        assert helper().hbar == hbar


class TestQuantumNumbers:
    def test_valid_triples_construct(self):
        qn = QuantumNumbers(4, 2, -1)
        assert (qn.n, qn.l, qn.m) == (4, 2, -1)
        assert QuantumNumbers(1, 0).m == 0

    @pytest.mark.parametrize(
        "n, l, m, fragment",
        [
            (0, 0, 0, "n >= 1"),
            (-3, 0, 0, "n >= 1"),
            (2, 2, 0, "l <= n - 1"),
            (1, -1, 0, "l >= 0"),
            (3, 1, 2, "|m| <= l"),
            (3, 1, -2, "|m| <= l"),
        ],
    )
    def test_violation_message(self, n, l, m, fragment):
        message = quantum_number_violation(n, l, m)
        assert message is not None and fragment in message
        with pytest.raises(ValueError):
            QuantumNumbers(n, l, m)

    def test_violation_none_for_valid(self):
        assert quantum_number_violation(5, 4, -4) is None

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            QuantumNumbers(2.0, 1, 0)


class TestGrids:
    def test_uniform_radial_grid(self):
        grid = make_radial_grid(1.0, 2.0, 5)
        np.testing.assert_allclose(grid.points, [1.0, 1.25, 1.5, 1.75, 2.0])
        assert grid.law == "uniform"

    def test_log_radial_grid_has_constant_ratio(self):
        grid = make_radial_grid(0.1, 10.0, 201, law="logarithmic")
        ratios = grid.points[1:] / grid.points[:-1]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
        assert grid.points[0] == pytest.approx(0.1)
        assert grid.points[-1] == pytest.approx(10.0)

    def test_uniform_spacing_property(self):
        assert make_radial_grid(1.0, 2.0, 5).spacing == pytest.approx(0.25)
        assert make_axis_grid(-1.0, 1.0, 5).spacing == pytest.approx(0.5)
        with pytest.raises(ValueError):
            make_radial_grid(0.1, 10.0, 11, law="logarithmic").spacing

    def test_axis_grid_spans_negative_coordinates(self):
        grid = make_axis_grid(-2.0, 2.0, 9)
        assert grid.points[0] == -2.0
        assert grid.points[-1] == 2.0
        np.testing.assert_allclose(np.diff(grid.points), 0.5)

    def test_points_are_read_only(self):
        grid = make_radial_grid(1.0, 2.0, 5)
        with pytest.raises(ValueError):
            grid.points[0] = 99.0
        axis = make_axis_grid(-1.0, 1.0, 5)
        with pytest.raises(ValueError):
            axis.points[0] = 99.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r_min=0.0, r_max=1.0, count=10),
            dict(r_min=-1.0, r_max=1.0, count=10),
            dict(r_min=2.0, r_max=1.0, count=10),
            dict(r_min=1.0, r_max=2.0, count=1),
            dict(r_min=1.0, r_max=2.0, count=10, law="cubic"),
        ],
    )
    def test_radial_grid_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            RadialGrid(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=1.0, count=10),
            dict(x_min=2.0, x_max=-2.0, count=10),
            dict(x_min=-1.0, x_max=1.0, count=1),
        ],
    )
    def test_axis_grid_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            AxisGrid(**kwargs)
