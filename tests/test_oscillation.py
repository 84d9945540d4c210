"""Constant chain, dyadic ladder, barrier, and the one-sided oscillation checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreg.degiorgi import UNIT_CYLINDER
from hjreg.grid import GridSpec, SliceRead, Window, field_from_values, level_set_measure
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.oscillation import (
    above_reads,
    above_terms,
    barrier,
    barrier_field,
    below_reads,
    below_terms,
    build_constant_chain,
    comparison_check,
    dyadic_ladder,
    oscillation_above_check,
    oscillation_below_check,
    time_reverse,
    validate_chain,
)
from hjreg.solver import solve

from conftest import check_residuals, const_field, noise_field, tables_of, time_field
from reference import make_field, reflect


class TestChainConstruction:
    def test_reference_chain_frozen_values(self, chain_unit):
        c = chain_unit
        assert c.ladder_depth == 13
        assert c.shrink_above == 2.0**-14
        assert c.prezoom_scale == 2.0**-14
        assert c.prezoom_time_exponent == 1.0
        assert c.middle_threshold == 1.0
        assert c.decay_ratio == pytest.approx(1.0 - 2.0**-27, rel=1e-15)
        assert c.barrier_height == pytest.approx(2.0**-24, rel=1e-12)
        assert c.shrink_below == pytest.approx(2.0**-25, rel=1e-12)
        assert c.barrier_slope == pytest.approx(1.5019429324804235e-07, rel=1e-12)
        assert c.zoom_ratio == pytest.approx(0.1574901304545972, rel=1e-12)
        assert c.zoom_time_exponent == pytest.approx(1.4999999979845784, rel=1e-12)
        assert c.holder_exponent == pytest.approx(4.03084338378134e-09, rel=1e-12)
        assert 0.0 < c.holder_exponent < 1.0

    def test_barrier_drop_stays_below_slope(self, chain_unit):
        assert 2.0 * chain_unit.barrier_height < chain_unit.barrier_slope

    def test_doubled_constant_coefficients(self, chain_double):
        assert chain_double.subsolution_coefficient == 64.0
        assert chain_double.subsolution_offset == 2.0**-13
        assert chain_double.supersolution_coefficient == 256.0
        assert chain_double.envelope == CoercivityEnvelope(lam=2.0, p=1.5)

    def test_all_invariants_hold(self, chain_unit, chain_double):
        for chain in (chain_unit, chain_double):
            checks = validate_chain(chain)
            assert len(checks) >= 9
            for name, check in checks.items():
                assert check.ok, f"{name}: {check.detail}"
                assert check.detail

    @pytest.mark.parametrize(
        "args",
        [
            (2, 2.0, 1.0, 1.0),   # p must stay below N
            (1, 1.5, 1.0, 1.0),   # needs at least two dimensions
            (2, 1.5, 0.5, 1.0),   # growth constant below 1
            (2, 1.5, 1.0, 0.0),   # degenerate middle threshold
        ],
    )
    def test_rejects_bad_parameters(self, args):
        with pytest.raises(ValueError):
            build_constant_chain(*args)

    def test_zoom_exponent_at_p_fails_the_ratio_identity(self, chain_unit):
        chain = replace(chain_unit, zoom_time_exponent=chain_unit.p)
        checks = validate_chain(chain)
        assert not checks["zoom_ratio"].ok
        assert checks["zoom_ratio"].slack == -np.inf
        assert not checks["zoom_exponent"].ok
        with pytest.raises(ValueError, match="zoom_ratio: slack=-inf"):
            build_constant_chain(2, 1.5, 1.0, 0.25)


class TestDyadicLadder:
    def test_ceiling_is_fixed(self, box2):
        f = const_field(box2, 2.0)
        for k in (1, 3, 7):
            np.testing.assert_array_equal(dyadic_ladder(f, k).values, 2.0)

    def test_unit_constant_first_level(self, box2):
        out = dyadic_ladder(const_field(box2, 1.0), 1)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_zero_constant_second_level(self, box2):
        out = dyadic_ladder(const_field(box2, 0.0), 2)
        np.testing.assert_array_equal(out.values, -6.0)

    def test_level_floor(self, box2, rng):
        f = noise_field(box2, rng)
        with pytest.raises(ValueError, match="level"):
            dyadic_ladder(f, 0)

    def test_preserves_ceiling(self, box2, rng):
        f = noise_field(box2, rng)
        capped = field_from_values(f.spec, np.minimum(f.values, 2.0))
        for k in (1, 2, 5):
            assert dyadic_ladder(capped, k).values.max() <= 2.0

    def test_nonpositive_set_grows(self, box2, rng):
        f = noise_field(box2, rng)
        win = Window(box2, UNIT_CYLINDER)
        base = level_set_measure(f, win, hi=0.0, closed_upper=True)
        lifted = level_set_measure(dyadic_ladder(f, 2), win, hi=0.0,
                                   closed_upper=True)
        assert lifted >= base


# the whole box's maxima and minima of f and of -f, so that the tables
# answer for the reflection too
BOX_EXTREMA = [SliceRead(kind, None, negated=negated)
               for kind in ("max", "min") for negated in (False, True)]


def box_extrema(tables):
    """The per-slice maxima and minima the tables read, in their slice
    order (the reflection's after ``time_reverse``)."""
    return np.stack([tables.table("max", None), tables.table("min", None)])


class TestTimeReverse:
    def test_time_ramp_is_fixed(self, box2):
        # Fixed up to lattice rounding: -(-t_i) and t_i need not be the same
        # float when the slice times come from arange arithmetic.
        tables = tables_of(time_field(box2), BOX_EXTREMA)
        np.testing.assert_allclose(box_extrema(time_reverse(tables)),
                                   box_extrema(tables), rtol=0, atol=1e-14)

    def test_constant_flips_sign(self, box2):
        out = time_reverse(tables_of(const_field(box2, 3.0), BOX_EXTREMA))
        np.testing.assert_array_equal(box_extrema(out), -3.0)

    def test_involution(self, box2, rng):
        f = noise_field(box2, rng)
        tables = tables_of(f, BOX_EXTREMA)
        np.testing.assert_array_equal(box_extrema(time_reverse(time_reverse(tables))),
                                      box_extrema(tables))
        np.testing.assert_array_equal(box_extrema(time_reverse(tables)),
                                      box_extrema(tables_of(reflect(f), BOX_EXTREMA)))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), steps=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_involution_is_bit_exact(self, data, dim, steps, seed):
        # at most 16^2 cells: up to 16 per axis in 1-D and 2-D, 6 in 3-D
        cells = data.draw(st.integers(4, min(16, int(256 ** (1 / dim)))))
        spec = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=cells,
                        t_start=-1.0, t_end=1.0, dt=2.0 / steps)
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((spec.n_slices, *spec.spatial_shape))
        values[rng.uniform(size=values.shape) < 0.1] = 0.0
        values *= rng.choice([-1.0, 1.0], size=values.shape)  # signed zeros
        f = field_from_values(spec, values)
        tables = tables_of(f, BOX_EXTREMA)
        twice = box_extrema(time_reverse(time_reverse(tables)))
        assert twice.tobytes() == box_extrema(tables).tobytes()
        once = box_extrema(time_reverse(tables))
        assert once.tobytes() == box_extrema(tables_of(reflect(f), BOX_EXTREMA)).tobytes()


class TestBarrier:
    def test_corner_values(self, chain_unit):
        c = chain_unit
        assert barrier(c, -2.0, 1.0) == pytest.approx(-2.0, rel=1e-15)
        assert barrier(c, 2.0, 1.0) == pytest.approx(
            -2.0 - c.barrier_height / 2.0, rel=1e-15
        )
        assert barrier(c, -2.0, 0.0) == pytest.approx(
            -2.0 + c.barrier_height, rel=1e-15
        )

    def test_time_slope(self, chain_unit, rng):
        c = chain_unit
        rate = c.barrier_height / 8.0
        for _ in range(20):
            r = np.linalg.norm(rng.uniform(-1.0, 1.0, size=2))
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            gap = abs(barrier(c, t1, r) - barrier(c, t2, r))
            # The drop is exactly linear in t, so leave rounding headroom.
            assert gap <= rate * abs(t1 - t2) * (1.0 + 1e-6) + 1e-18

    def test_space_slope(self, chain_unit, rng):
        c = chain_unit
        for _ in range(20):
            t = rng.uniform(-2.0, 2.0)
            x, y = rng.uniform(-1.0, 1.0, size=(2, 2))
            gap = abs(barrier(c, t, np.linalg.norm(x))
                      - barrier(c, t, np.linalg.norm(y)))
            dist = float(np.linalg.norm(x - y))
            assert gap <= c.barrier_slope * dist * (1.0 + 1e-9) + 1e-18

    def test_field_matches_pointwise_values(self, chain_unit, box2):
        f = barrier_field(chain_unit, box2)
        centers = box2.centers()
        times = box2.times()
        for i, j, k in [(0, 0, 0), (80, 10, 10), (160, 19, 3)]:
            assert f.values[i, j, k] == pytest.approx(
                barrier(chain_unit, float(times[i]), np.linalg.norm(centers[j, k])),
                rel=1e-15,
            )


class TestComparisonCheck:
    def test_constant_above_barrier_has_clean_margin(self, chain_unit, box2):
        f = const_field(box2, -2.0 + chain_unit.barrier_height)
        report = comparison_check(f, chain_unit)
        assert report.min_margin >= 0.0
        assert report.n_violations == 0
        assert report.worst_cells == ()

    def test_solved_supersolution_dominates_barrier(self, chain_unit, box2):
        h = HamiltonianSpec(kind="scaled-power-law", p=chain_unit.p,
                            coefficient=chain_unit.supersolution_coefficient)
        psi0 = barrier_field(chain_unit, box2).values[0]
        traj = solve(box2, h, psi0)
        report = comparison_check(traj.field, chain_unit)
        assert report.min_margin >= -10.0 * (box2.cell_width + box2.dt)

    def test_initial_ordering_violation_is_an_error(self, chain_unit, box2):
        f = barrier_field(chain_unit, box2)
        dipped = field_from_values(f.spec, f.values - 1e-3)
        with pytest.raises(ValueError, match="initial"):
            comparison_check(dipped, chain_unit)

    def test_super_residual_violation_is_an_error(self, chain_unit, box2):
        f = make_field(box2, lambda t, x: -t)
        with pytest.raises(ValueError, match="residual"):
            comparison_check(f, chain_unit, residual_tol=0.1)

    @pytest.mark.parametrize("n_dips", [3, 20])
    def test_worst_cells_follow_a_stable_sort(self, chain_unit, box2, rng, n_dips):
        """Dips at random cells after the first slice: the count, the least
        margin and the worst cells, in the order of a stable sort of the
        margin (the memory test has ties)."""
        psi = barrier_field(chain_unit, box2).values
        dips = np.zeros(psi.size)
        cells = rng.choice(np.arange(psi[0].size, psi.size), n_dips, replace=False)
        dips[cells] = -rng.uniform(0.1, 1.0, n_dips)
        f = field_from_values(box2, psi + dips.reshape(psi.shape))
        margin = f.values - psi
        report = comparison_check(f, chain_unit, residual_tol=np.inf)
        n = int(np.count_nonzero(margin < 0.0))
        order = np.argsort(margin, axis=None, kind="stable")[:min(8, n)]
        assert report.n_violations == n == n_dips
        assert report.min_margin == margin.min()
        assert report.worst_cells == tuple(
            tuple(int(i) for i in np.unravel_index(k, margin.shape)) for k in order
        )


def _above(f, chain, **kwargs):
    residuals = check_residuals(f, chain.envelope, above_terms(chain))
    return oscillation_above_check(tables_of(f, above_reads(chain)), chain,
                                   residuals, **kwargs)


def _below(f, chain, **kwargs):
    residuals = check_residuals(f, chain.envelope, below_terms(chain))
    return oscillation_below_check(tables_of(f, below_reads(chain)), chain,
                                   residuals, **kwargs)


class TestOscillationAbove:
    def test_negative_constant_passes(self, chain_unit, box2):
        verdict = _above(const_field(box2, -1.0), chain_unit)
        assert verdict.preconditions["bounded_by_two"]
        assert verdict.preconditions["subsolution"]
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied

    def test_ceiling_constant_is_vacuous(self, chain_unit, box2):
        verdict = _above(const_field(box2, 2.0), chain_unit)
        assert not verdict.hypothesis_satisfied
        assert not verdict.conclusion_satisfied

    def test_conclusion_threshold_uses_shrink(self, chain_unit, box2):
        verdict = _above(const_field(box2, -1.0), chain_unit)
        assert verdict.conclusion_thresholds["late_sup"] == pytest.approx(
            2.0 - chain_unit.shrink_above, rel=1e-12
        )

    def test_requires_covering_grid(self, chain_unit):
        short = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                         t_start=0.0, t_end=1.0, dt=0.025)
        with pytest.raises(ValueError, match="cover"):
            _above(const_field(short, -1.0), chain_unit)


class TestOscillationBelow:
    def test_zero_constant_passes(self, chain_unit, box2):
        verdict = _below(const_field(box2, 0.0), chain_unit)
        assert verdict.hypothesis_satisfied
        assert verdict.conclusion_satisfied

    def test_floor_constant_is_vacuous(self, chain_unit, box2):
        verdict = _below(const_field(box2, -2.0), chain_unit)
        assert not verdict.hypothesis_satisfied

    def test_conclusion_threshold_uses_shrink(self, chain_unit, box2):
        verdict = _below(const_field(box2, 0.0), chain_unit)
        late_min = verdict.conclusion_thresholds["late_min"]
        assert late_min == pytest.approx(-2.0 + chain_unit.shrink_below, rel=1e-9)
