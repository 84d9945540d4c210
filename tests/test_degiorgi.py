"""Truncation energies, the iteration ladder, and the small-mass checks."""

import math

import numpy as np
import pytest

from hjreg.degiorgi import (
    cutoff_time,
    delta_constant,
    energy_ladder,
    fast_convergence_threshold,
    ladder_reads,
    lemma_one_check,
    lemma_one_reads,
    lemma_two_check,
    lemma_two_reads,
    lemma_two_terms,
    recurrence_fit,
    recurrence_orbit,
    truncated_energy,
)
from hjreg.grid import Cylinder, GridSpec, Window, field_from_values, level_set_measure
from hjreg.hamiltonians import CoercivityEnvelope

from conftest import (
    check_residuals,
    const_field,
    coordinate_field,
    tables_of,
    time_field,
)
from reference import make_field


def _energy(f, level, env):
    return truncated_energy(tables_of(f, ladder_reads(f.spec, level, env)), level, env)


def _ladder(f, k_max, env):
    return energy_ladder(tables_of(f, ladder_reads(f.spec, k_max, env)), k_max, env)


def _lemma_one(f, env, **kwargs):
    return lemma_one_check(tables_of(f, lemma_one_reads()), env, **kwargs)


def lattice_disk_area(spec):
    """Spatial measure the lattice assigns to the unit disk."""
    f = const_field(spec, 0.0)
    win = Window(spec, Cylinder(t_lo=spec.t_start, t_hi=spec.t_end, radius=1.0))
    return level_set_measure(f, win) / (spec.t_end - spec.t_start)


class TestTruncation:
    def test_cutoff_time_values(self):
        assert cutoff_time(0) == 0.0
        assert cutoff_time(1) == 0.5
        assert cutoff_time(2) == 0.75
        with pytest.raises(ValueError):
            cutoff_time(-1)


class TestTruncatedEnergy:
    def test_constant_two(self, box2, env_unit):
        got = _energy(const_field(box2, 2.0), 1, env_unit)
        assert got == pytest.approx(1.5 * lattice_disk_area(box2), rel=1e-12)
        assert got == pytest.approx(1.5 * math.pi, rel=0.1)

    def test_nonpositive_field_has_zero_energy(self, box2, env_unit):
        assert _energy(const_field(box2, -0.5), 1, env_unit) == 0.0

    def test_requires_window_coverage(self, env_unit):
        short = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                         t_start=0.0, t_end=1.0, dt=0.025)
        with pytest.raises(ValueError, match="cover"):
            _energy(const_field(short, 2.0), 1, env_unit)

    def test_level_floor(self, box2, env_unit):
        with pytest.raises(ValueError, match="level"):
            _energy(const_field(box2, 2.0), 0, env_unit)


class TestEnergyLadder:
    def test_constant_two_profile(self, box2, env_unit):
        got = _ladder(const_field(box2, 2.0), 8, env_unit)
        area = lattice_disk_area(box2)
        expected = [(1.0 + 2.0**-k) * area for k in range(1, 9)]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert all(a > b for a, b in zip(got, got[1:]))

    def test_nonpositive_field_is_identically_zero(self, box2, env_unit):
        energies = _ladder(const_field(box2, -1.0), 6, env_unit)
        assert all(e == 0.0 for e in energies)

    def test_nonincreasing_in_level(self, box2, env_unit, rng):
        values = np.abs(rng.standard_normal((box2.n_slices, *box2.spatial_shape)))
        f = field_from_values(box2, values)
        energies = _ladder(f, 6, env_unit)
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_zero_entry_stays_zero(self, box2, env_unit):
        # f = 0.6 clears the level-1 threshold but not level 2.
        energies = _ladder(const_field(box2, 0.6), 5, env_unit)
        assert energies[0] > 0.0
        assert all(e == 0.0 for e in energies[1:])

    def test_each_level_reads_only_its_window(self, box2, env_unit):
        """A level's excess and gradient tables are filled from its window
        ``[1 - 2^-k, 2]`` on, or from the slice before it: the earlier
        entries stay 0, also where the truncation is positive."""
        f = make_field(box2, lambda t, x: 2.0 + x[..., 0])
        reads = ladder_reads(box2, 8, env_unit)
        tables = tables_of(f, reads)
        for read in reads:
            win = Window(box2, Cylinder(read.arg[0], 2.0, 1.0))
            start = min(win.slices[0], win.weighted_slices()[0])
            assert start - 1 <= read.first <= start
            table = tables.table(read.kind, read.radius, read.arg, read.first)
            assert not table[:read.first].any() and table[read.first:].all()

    def test_level_floor(self, box2, env_unit):
        with pytest.raises(ValueError, match="k_max"):
            _ladder(const_field(box2, 2.0), 0, env_unit)


class TestRecurrenceFit:
    def test_recovers_generating_constant(self, env_unit):
        beta = env_unit.p / 2.0
        orbit = recurrence_orbit(10.0, beta, 0.01, 5)
        fit = recurrence_fit(orbit, beta)
        assert fit.d_fit == pytest.approx(10.0, rel=1e-12)
        np.testing.assert_allclose(fit.ratios, 10.0, rtol=1e-12)
        assert not fit.all_zero

    def test_all_zero_ladder(self, env_unit):
        fit = recurrence_fit(np.zeros(3), env_unit.p / 2.0)
        assert fit.all_zero
        assert fit.d_fit == 0.0
        assert fit.ratios == ()

    def test_single_entry_has_no_ratios(self, env_unit):
        fit = recurrence_fit(np.ones(1), env_unit.p / 2.0)
        assert fit.d_fit is None
        assert not fit.all_zero

    def test_slowly_decaying_ladder_reports_large_constant(self, box2, env_unit):
        ladder = _ladder(const_field(box2, 2.0), 6, env_unit)
        fit = recurrence_fit(ladder, env_unit.p / box2.dimension)
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
        verdict = _lemma_one(const_field(box2, 0.0), env_unit, delta=0.005)
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied
        assert verdict.hypothesis_values["plus_mass"] == 0.0
        assert verdict.conclusion_values["late_sup"] == 0.0

    def test_large_field_fails_both_sides(self, box2, env_unit):
        verdict = _lemma_one(const_field(box2, 2.0), env_unit, delta=0.005)
        assert not verdict.hypothesis_satisfied
        assert not verdict.conclusion_satisfied
        assert verdict.conclusion_values["late_sup"] == 2.0

    def test_requires_time_coverage(self, env_unit):
        short = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                         t_start=1.5, t_end=2.0, dt=0.025)
        with pytest.raises(ValueError, match="cover"):
            _lemma_one(const_field(short, 0.0), env_unit, delta=0.005)

    def test_explicit_conclusion_tolerance(self, box2, env_unit):
        f = make_field(box2, lambda t, x: 1.0 + 0.05 * np.sin(x[..., 0]))
        strict = _lemma_one(f, env_unit, delta=1e9, conclusion_tol=0.0)
        loose = _lemma_one(f, env_unit, delta=1e9, conclusion_tol=0.1)
        assert not strict.conclusion_satisfied
        assert loose.conclusion_satisfied

    def test_reported_threshold_includes_the_tolerance(self, box2, env_unit):
        # one late cell at 1 + 1e-3 sits inside the one-cell tolerance, and
        # the threshold reported is the one the late sup was compared against
        values = np.zeros((box2.n_slices, *box2.spatial_shape))
        values[np.searchsorted(box2.times(), 1.5), 10, 10] = 1.0 + 1e-3
        verdict = _lemma_one(field_from_values(box2, values), env_unit,
                                  delta=1e9)
        sup, bound = (verdict.conclusion_values["late_sup"],
                      verdict.conclusion_thresholds["late_sup"])
        assert sup == 1.0 + 1e-3
        assert verdict.conclusion_satisfied
        assert sup <= bound == 1.0 + verdict.tolerances["late_sup"]


def _lemma_two(f, env, **kwargs):
    residuals = check_residuals(f, env, lemma_two_terms(env))
    return lemma_two_check(tables_of(f, lemma_two_reads()), env,
                           residuals=residuals, **kwargs)


class TestLemmaTwo:
    def test_negative_constant_passes(self, box2, env_unit):
        verdict = _lemma_two(const_field(box2, -1.0), env_unit,
                             alpha=0.5, delta=0.01)
        assert verdict.preconditions["bounded_by_two"]
        assert verdict.preconditions["subsolution"]
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied
        assert verdict.conclusion_values["above_mass"] == 0.0

    def test_positive_half_is_vacuous(self, box2, env_unit):
        verdict = _lemma_two(const_field(box2, 0.5), env_unit,
                             alpha=1e-6, delta=0.01)
        assert not verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied

    def test_rejects_supercritical_exponent(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        with pytest.raises(ValueError, match="p < N"):
            _lemma_two(const_field(box2, -1.0), env, alpha=0.5, delta=0.01)

    def test_drifting_field_violates_subsolution_precondition(self, box2, env_unit):
        # du/dt = 1.6 exceeds the critical rate lam = 1 by more than the
        # tolerance, while the field itself stays below the ceiling.
        f = make_field(box2, lambda t, x: 1.6 * t - 4.0)
        verdict = _lemma_two(f, env_unit, alpha=4.0, delta=0.01,
                             residual_tol=0.4)
        assert verdict.preconditions["bounded_by_two"]
        assert not verdict.preconditions["subsolution"]
