"""Truncation energies, the iteration ladder, and the small-mass checks."""

import math

import numpy as np
import pytest

from hjreg.degiorgi import (
    EnergyLadder,
    LadderEntry,
    cutoff_time,
    delta_constant,
    energy_ladder,
    fast_convergence_threshold,
    lemma_one_check,
    lemma_two_check,
    recurrence_fit,
    recurrence_orbit,
    truncate,
    truncated_energy,
)
from hjreg.grid import Cylinder, GridSpec, level_set_measure, make_field
from hjreg.hamiltonians import CoercivityEnvelope

from conftest import const_field, coordinate_field, time_field


def lattice_disk_area(spec):
    """Spatial measure the lattice assigns to the unit disk."""
    f = const_field(spec, 0.0)
    cyl = Cylinder(t_lo=spec.t_start, t_hi=spec.t_end,
                   center=(0.0,) * spec.dimension, radius=1.0)
    return level_set_measure(f, cyl) / (spec.t_end - spec.t_start)


class TestTruncation:
    def test_cutoff_time_values(self):
        assert cutoff_time(0) == 0.0
        assert cutoff_time(1) == 0.5
        assert cutoff_time(2) == 0.75
        with pytest.raises(ValueError):
            cutoff_time(-1)

    def test_truncate_constant(self, box2):
        f = const_field(box2, 0.9)
        assert np.all(truncate(f, 1).values == pytest.approx(0.4, abs=1e-15))
        assert np.all(truncate(f, 2).values == pytest.approx(0.15, abs=1e-15))

    def test_truncate_below_threshold_vanishes(self, box2):
        f = const_field(box2, 0.5)
        assert np.all(truncate(f, 1).values == 0.0)
        assert np.all(truncate(f, 3).values == 0.0)

    def test_truncate_monotone_in_level(self, box2, rng):
        values = rng.uniform(-1.0, 2.0, (box2.n_slices, *box2.spatial_shape))
        f = const_field(box2, 0.0).with_values(values)
        lower = truncate(f, 3).values
        higher = truncate(f, 2).values
        assert np.all(lower <= higher)


class TestTruncatedEnergy:
    def test_constant_two(self, box2, env_unit):
        got = truncated_energy(const_field(box2, 2.0), 1, env_unit)
        assert got == pytest.approx(1.5 * lattice_disk_area(box2), rel=1e-12)
        assert got == pytest.approx(1.5 * math.pi, rel=0.1)

    def test_nonpositive_field_has_zero_energy(self, box2, env_unit):
        assert truncated_energy(const_field(box2, -0.5), 1, env_unit) == 0.0

    def test_requires_window_coverage(self, env_unit):
        short = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                         t_start=0.0, t_end=1.0, dt=0.025)
        with pytest.raises(ValueError, match="cover"):
            truncated_energy(const_field(short, 2.0), 1, env_unit)

    def test_level_floor(self, box2, env_unit):
        with pytest.raises(ValueError, match="level"):
            truncated_energy(const_field(box2, 2.0), 0, env_unit)


class TestEnergyLadder:
    def test_constant_two_profile(self, box2, env_unit):
        ladder = energy_ladder(const_field(box2, 2.0), 8, env_unit)
        area = lattice_disk_area(box2)
        got = ladder.energies()
        expected = [(1.0 + 2.0**-k) * area for k in range(1, 9)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert all(a > b for a, b in zip(got, got[1:]))

    def test_nonpositive_field_is_identically_zero(self, box2, env_unit):
        ladder = energy_ladder(const_field(box2, -1.0), 6, env_unit)
        assert all(e == 0.0 for e in ladder.energies())

    def test_nonincreasing_in_level(self, box2, env_unit, rng):
        values = np.abs(rng.standard_normal((box2.n_slices, *box2.spatial_shape)))
        f = const_field(box2, 0.0).with_values(values)
        energies = energy_ladder(f, 6, env_unit).energies()
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_zero_entry_stays_zero(self, box2, env_unit):
        # f = 0.6 clears the level-1 threshold but not level 2.
        energies = energy_ladder(const_field(box2, 0.6), 5, env_unit).energies()
        assert energies[0] > 0.0
        assert all(e == 0.0 for e in energies[1:])

    def test_level_floor(self, box2, env_unit):
        with pytest.raises(ValueError, match="k_max"):
            energy_ladder(const_field(box2, 2.0), 0, env_unit)


def synthetic_ladder(energies, env):
    entries = tuple(
        LadderEntry(level=k + 1, cutoff=cutoff_time(k + 1), energy=float(e))
        for k, e in enumerate(energies)
    )
    return EnergyLadder(env=env, entries=entries)


class TestRecurrenceFit:
    def test_recovers_generating_constant(self, env_unit):
        beta = env_unit.p / 2.0
        orbit = recurrence_orbit(10.0, beta, 0.01, 5)
        fit = recurrence_fit(synthetic_ladder(orbit, env_unit), 2)
        assert fit.d_fit == pytest.approx(10.0, rel=1e-12)
        np.testing.assert_allclose(fit.ratios, 10.0, rtol=1e-12)
        assert not fit.all_zero

    def test_all_zero_ladder(self, env_unit):
        fit = recurrence_fit(synthetic_ladder([0.0, 0.0, 0.0], env_unit), 2)
        assert fit.all_zero
        assert fit.d_fit == 0.0
        assert fit.ratios == ()

    def test_single_entry_has_no_ratios(self, env_unit):
        fit = recurrence_fit(synthetic_ladder([1.0], env_unit), 2)
        assert fit.d_fit is None
        assert not fit.all_zero

    def test_slowly_decaying_ladder_reports_large_constant(self, box2, env_unit):
        ladder = energy_ladder(const_field(box2, 2.0), 6, env_unit)
        fit = recurrence_fit(ladder, box2.dimension)
        assert fit.d_fit is not None
        assert fit.d_fit > 0.0
        assert len(fit.ratios) == 5


class TestRecurrenceOrbit:
    def test_threshold_worked_example(self):
        assert fast_convergence_threshold(10.0, 0.75) == pytest.approx(
            0.023207944168063893, rel=1e-15
        )

    def test_threshold_unit_case(self):
        assert fast_convergence_threshold(1.0, 1.0) == 0.5

    def test_sixty_step_collapse(self):
        a0 = fast_convergence_threshold(10.0, 0.75)
        orbit = recurrence_orbit(10.0, 0.75, a0, 60)
        assert orbit[-1] < 1e-30

    @pytest.mark.parametrize("d", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("beta", [0.25, 0.75, 2.0])
    def test_threshold_forces_collapse(self, d, beta):
        a0 = fast_convergence_threshold(d, beta)
        orbit = recurrence_orbit(d, beta, a0, 40)
        assert orbit[-1] < 1e-12
        assert np.all(orbit[1:] <= orbit[:-1])

    def test_delta_constant_values(self):
        assert delta_constant(0.023207944168063893, 1.0) == pytest.approx(
            0.0058019860420159735, rel=1e-15
        )
        assert delta_constant(1.0, 1.0) == 0.25
        assert delta_constant(0.2, 1.0) == pytest.approx(0.05, rel=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            recurrence_orbit(0.0, 0.75, 0.1, 5)
        with pytest.raises(ValueError):
            fast_convergence_threshold(10.0, 0.0)
        with pytest.raises(ValueError):
            delta_constant(0.0, 1.0)
        with pytest.raises(ValueError):
            delta_constant(0.1, 0.5)


class TestLemmaOne:
    def test_zero_field_passes(self, box2, env_unit):
        verdict = lemma_one_check(const_field(box2, 0.0), env_unit, delta=0.005)
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied
        assert verdict.hypothesis_values["plus_mass"] == 0.0
        assert verdict.conclusion_values["late_sup"] == 0.0

    def test_large_field_fails_both_sides(self, box2, env_unit):
        verdict = lemma_one_check(const_field(box2, 2.0), env_unit, delta=0.005)
        assert not verdict.hypothesis_satisfied
        assert not verdict.conclusion_satisfied
        assert verdict.conclusion_values["late_sup"] == 2.0

    def test_requires_time_coverage(self, env_unit):
        short = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                         t_start=1.5, t_end=2.0, dt=0.025)
        with pytest.raises(ValueError, match="cover"):
            lemma_one_check(const_field(short, 0.0), env_unit, delta=0.005)

    def test_explicit_conclusion_tolerance(self, box2, env_unit):
        f = make_field(box2, lambda t, x: 1.0 + 0.05 * np.sin(x[..., 0]))
        strict = lemma_one_check(f, env_unit, delta=1e9, conclusion_tol=0.0)
        loose = lemma_one_check(f, env_unit, delta=1e9, conclusion_tol=0.1)
        assert not strict.conclusion_satisfied
        assert loose.conclusion_satisfied


class TestLemmaTwo:
    def test_negative_constant_passes(self, box2, env_unit):
        verdict = lemma_two_check(const_field(box2, -1.0), env_unit,
                                  alpha=0.5, delta=0.01)
        assert verdict.preconditions["bounded_by_two"]
        assert verdict.preconditions["subsolution"]
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied
        assert verdict.conclusion_values["above_mass"] == 0.0

    def test_positive_half_is_vacuous(self, box2, env_unit):
        verdict = lemma_two_check(const_field(box2, 0.5), env_unit,
                                  alpha=1e-6, delta=0.01)
        assert not verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied

    def test_rejects_supercritical_exponent(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        with pytest.raises(ValueError, match="p < N"):
            lemma_two_check(const_field(box2, -1.0), env, alpha=0.5, delta=0.01)

    def test_drifting_field_violates_subsolution_precondition(self, box2, env_unit):
        # du/dt = 1.6 exceeds the critical rate lam = 1 by more than the
        # tolerance, while the field itself stays below the ceiling.
        f = make_field(box2, lambda t, x: 1.6 * t - 4.0)
        verdict = lemma_two_check(f, env_unit, alpha=4.0, delta=0.01,
                                  residual_tol=0.4)
        assert verdict.preconditions["bounded_by_two"]
        assert not verdict.preconditions["subsolution"]
