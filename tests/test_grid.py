"""Lattice primitives: sampling, windows, measures, gradients, oscillation, snapshots."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreg.grid import (
    Cylinder,
    EmptyCylinderError,
    GridSpec,
    ScalarField,
    SliceRead,
    Window,
    ball_volume,
    discrete_gradient_norm_p,
    field_from_values,
    from_json,
    level_set_measure,
    one_cell_oscillation,
    save_snapshot,
    to_json,
)

import reference
from conftest import const_field, coordinate_field, noise_field, tables_of, time_field
from reference import make_field


@pytest.fixture(scope="module")
def tiny():
    return GridSpec(dimension=2, half_width=1.0, cells_per_axis=4,
                    t_start=0.0, t_end=1.0, dt=0.5)


class TestGridSpec:
    def test_derived_quantities(self, box2):
        assert box2.n_steps == 160
        assert box2.n_slices == 161
        assert box2.cell_width == 0.125
        assert box2.cell_volume == 0.125**2
        assert box2.spatial_shape == (20, 20)

    def test_centers_hand_enumerated(self, tiny):
        np.testing.assert_allclose(
            tiny.axis_centers(), [-0.75, -0.25, 0.25, 0.75], rtol=0, atol=0
        )
        centers = tiny.centers()
        assert centers.shape == (4, 4, 2)
        assert centers[1, 3, 0] == -0.25
        assert centers[1, 3, 1] == 0.75

    def test_times_cover_span(self, box2):
        t = box2.times()
        assert t[0] == -2.0
        assert t[-1] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dimension=0),
            dict(half_width=0.0),
            dict(cells_per_axis=3),
            dict(t_end=-3.0),
            dict(dt=-0.1),
            dict(dt=0.3),
            dict(dimension=40),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(dimension=2, half_width=1.0, cells_per_axis=8,
                    t_start=-2.0, t_end=2.0, dt=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            GridSpec(**base)

    def test_json_round_trip(self, box2):
        assert from_json(GridSpec, to_json(box2), "grid") == box2


class TestMakeField:
    def test_zero(self, tiny):
        f = const_field(tiny, 0.0)
        assert f.values.shape == (3, 4, 4)
        assert np.all(f.values == 0.0)

    def test_time_ramp(self, tiny):
        f = time_field(tiny)
        for i, t in enumerate(tiny.times()):
            assert np.all(f.values[i] == t)

    def test_first_coordinate(self, tiny):
        f = coordinate_field(tiny)
        np.testing.assert_array_equal(f.values[0][:, 0], [-0.75, -0.25, 0.25, 0.75])
        np.testing.assert_array_equal(f.values[2][:, 3], [-0.75, -0.25, 0.25, 0.75])

    def test_rejects_non_finite_samples(self, tiny):
        def bad(t, x):
            out = np.asarray(x[..., 0]).copy()
            if t > 0.4:
                out[0, 0] = np.inf
            return out

        with pytest.raises(ValueError, match="non-finite"):
            make_field(tiny, bad)

    def test_field_shape_guard(self, tiny):
        with pytest.raises(ValueError, match="shape"):
            field_from_values(tiny, np.zeros((2, 4, 4)))

    def test_values_are_read_only(self, tiny):
        f = const_field(tiny, 1.0)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 2.0


class TestMeasures:
    def test_ball_volume_disk(self):
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-12)

    def test_time_ramp_splits_cylinder_in_half(self):
        # Odd step count keeps t = 0 off the lattice, so the below/above
        # halves carry identical slice weights.
        spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                        t_start=-2.0, t_end=2.0, dt=4.0 / 159.0)
        f = time_field(spec)
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.0)
        win = Window(spec, cyl)
        below = level_set_measure(f, win, hi=0.0, closed_upper=True)
        total = level_set_measure(f, win)
        assert below == pytest.approx(0.5 * total, rel=1e-12)
        # One boundary layer of cells separates this from the exact 2*pi.
        rel_err = abs(below - 2.0 * math.pi) / (2.0 * math.pi)
        assert rel_err <= 2 * spec.dimension * spec.cell_width / cyl.radius

    def test_constant_above_window_has_zero_measure(self, box2):
        f = const_field(box2, 5.0)
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.0)
        assert level_set_measure(f, Window(box2, cyl), hi=1.0) == 0.0

    def test_coordinate_field_splits_in_half(self, box2):
        f = coordinate_field(box2)
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.0)
        win = Window(box2, cyl)
        below = level_set_measure(f, win, hi=0.0)
        total = level_set_measure(f, win)
        assert below == pytest.approx(0.5 * total, rel=1e-12)
        assert below == pytest.approx(2.0 * math.pi, rel=0.5)

    def test_point_level_as_closed_open_difference(self, box2):
        f = const_field(box2, 5.0)
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.0)
        win = Window(box2, cyl)
        closed = level_set_measure(f, win, hi=5.0, closed_upper=True)
        open_ = level_set_measure(f, win, hi=5.0)
        total = level_set_measure(f, win)
        assert open_ == 0.0
        assert closed == pytest.approx(total, rel=1e-12)

    def test_empty_cylinder_raises(self, box2):
        f = const_field(box2, 0.0)
        # empty by time (between two slices) and by a radius under half a cell
        for cyl in (Cylinder(t_lo=0.01, t_hi=0.02, radius=1.0),
                    Cylinder(t_lo=-2.0, t_hi=2.0, radius=0.05)):
            with pytest.raises(EmptyCylinderError):
                level_set_measure(f, Window(box2, cyl))
            with pytest.raises(EmptyCylinderError):
                one_cell_oscillation(f, Window(box2, cyl))

    def test_level_set_additivity(self, box2, rng):
        f = noise_field(box2, rng)
        cyl = Cylinder(t_lo=-1.5, t_hi=1.5, radius=1.0)
        lo, mid, hi = -0.3, 0.1, 0.8
        win = Window(box2, cyl)
        lower = level_set_measure(f, win, lo=lo, hi=mid, closed_upper=True)
        upper = level_set_measure(f, win, lo=mid, hi=hi)
        both = level_set_measure(f, win, lo=lo, hi=hi)
        assert lower + upper == pytest.approx(both, rel=1e-12)

    @pytest.mark.parametrize("radius", [1.0, 0.6])
    def test_full_range_matches_product_measure(self, box2, radius):
        f = const_field(box2, 0.0)
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=radius)
        counted = level_set_measure(f, Window(box2, cyl))
        exact = (cyl.t_hi - cyl.t_lo) * ball_volume(box2.dimension, radius)
        rel = abs(counted - exact) / exact
        assert rel <= 2 * box2.dimension * box2.cell_width / radius


class TestWindow:
    def test_slice_at_t_hi_is_selected_and_the_next_is_not(self, box2):
        win = Window(box2, Cylinder(t_lo=-1.0, t_hi=0.5, radius=1.0))
        times = box2.times()
        # Slice 100 sits at t_hi up to round-off; slice 101 is one step past it.
        assert times[100] == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_array_equal(win.slices, np.arange(40, 101))

    @pytest.mark.parametrize(
        "t_lo, t_hi", [(-2.0, 2.0), (-1.0, 0.5), (0.0, 2.0), (1.0, 1.025)]
    )
    def test_weights_sum_to_the_duration_on_lattice_endpoints(self, box2, t_lo, t_hi):
        cyl = Cylinder(t_lo=t_lo, t_hi=t_hi, radius=1.0)
        win = Window(box2, cyl)
        assert win.weights.shape == (box2.n_slices,)
        assert win.weights.sum() == pytest.approx(t_hi - t_lo, rel=1e-12)

    def test_window_between_two_slices_is_empty(self, box2):
        cyl = Cylinder(t_lo=0.01, t_hi=0.02, radius=1.0)
        with pytest.raises(EmptyCylinderError):
            Window(box2, cyl)

    def test_geometry_is_shared_and_read_only(self, box2):
        cyl = Cylinder(t_lo=-1.0, t_hi=0.5, radius=1.0)
        first, second = Window(box2, cyl), Window(box2, cyl)
        for name in ("slices", "weights", "mask"):
            arr = getattr(first, name)
            assert arr is getattr(second, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = arr

    def test_one_cylinder_on_two_grids_gets_two_geometries(self, box2):
        cyl = Cylinder(t_lo=-1.0, t_hi=0.5, radius=1.0)
        fine = replace(box2, cells_per_axis=2 * box2.cells_per_axis, dt=box2.dt / 2)
        coarse, refined = Window(box2, cyl), Window(fine, cyl)
        assert refined.mask.shape == fine.spatial_shape != coarse.mask.shape
        assert refined.weights.shape == (fine.n_slices,)
        assert len(refined.slices) == 2 * len(coarse.slices) - 1
        assert refined.weights.sum() == pytest.approx(coarse.weights.sum(), rel=1e-12)

    def test_empty_cylinder_raises_on_every_construction(self, box2):
        # every cell center lies at least sqrt(2)/2 cell widths from the origin
        cyl = Cylinder(t_lo=-2.0, t_hi=2.0, radius=0.05)
        for _ in range(2):
            with pytest.raises(EmptyCylinderError):
                Window(box2, cyl)

    def test_cover_needs_the_time_range(self, box2):
        cyl = Cylinder(t_lo=-3.0, t_hi=2.0, radius=1.0)
        with pytest.raises(ValueError, match="time range .* does not cover"):
            Window.require_cover(box2, cyl)

    def test_cover_needs_two_cells_of_padding(self, box2):
        # half-width 1.25 with cell width 0.125 leaves exactly two cells
        # around the unit ball, and not around a slightly larger one.
        ok = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.0)
        Window.require_cover(box2, ok)
        wide = Cylinder(t_lo=-2.0, t_hi=2.0, radius=1.01)
        with pytest.raises(ValueError, match="padding"):
            Window.require_cover(box2, wide)

    def test_extrema_and_integral(self, box2):
        f = time_field(box2)
        win = Window(box2, Cylinder(t_lo=-1.0, t_hi=0.5, radius=1.0))
        extrema = tables_of(f, [SliceRead("max", 1.0), SliceRead("min", 1.0)])
        assert extrema.min(win) == -1.0
        assert extrema.max(win) == pytest.approx(0.5, abs=1e-12)
        area = np.count_nonzero(win.mask) * box2.cell_volume
        ones = tables_of(const_field(box2, 1.0), [SliceRead("excess", 1.0, (0.0,))])
        assert ones.integral(win, above=0.0) == pytest.approx(1.5 * area, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    dt=st.sampled_from([0.5, 0.25, 0.1, 0.025, 1.0 / 3.0]),
    start=st.integers(min_value=-40, max_value=40),
    n_steps=st.integers(min_value=1, max_value=40),
    lo=st.integers(min_value=-6, max_value=46),
    length=st.integers(min_value=1, max_value=50),
)
def test_window_matches_integer_reference(dt, start, n_steps, lo, length):
    """Selection and weights equal a reference built from slice indices."""
    t_start = start * dt
    spec = GridSpec(dimension=1, half_width=1.0, cells_per_axis=4,
                    t_start=t_start, t_end=t_start + n_steps * dt, dt=dt)
    hi = lo + length
    cyl = Cylinder(t_lo=t_start + lo * dt, t_hi=t_start + hi * dt,
                   radius=0.5)
    index = np.arange(spec.n_slices)
    selected = index[(index >= lo) & (index <= hi)]
    # Slice i owns [i - 1/2, i + 1/2] clipped to [0, n_steps], in steps.
    own_lo = np.maximum(index - 0.5, 0.0)
    own_hi = np.minimum(index + 0.5, float(n_steps))
    steps = np.maximum(np.minimum(own_hi, hi) - np.maximum(own_lo, lo), 0.0)
    if selected.size == 0:
        with pytest.raises(EmptyCylinderError):
            Window(spec, cyl)
        return
    win = Window(spec, cyl)
    np.testing.assert_array_equal(win.slices, selected)
    np.testing.assert_allclose(win.weights, dt * steps, rtol=0.0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    dt=st.sampled_from([0.5, 0.25, 0.1, 0.025, 1.0 / 3.0]),
    start=st.integers(min_value=-40, max_value=40),
    n_steps=st.integers(min_value=1, max_value=40),
    lo=st.floats(min_value=-6.0, max_value=46.0),
    length=st.floats(min_value=0.0, max_value=50.0),
    pad=st.integers(min_value=0, max_value=3),
)
def test_slice_range_pads_the_selection(dt, start, n_steps, lo, length, pad):
    """The slices with times in ``[t_lo, t_hi]``, ``pad`` more each side,
    clipped to the grid; the interval may fall between two slices."""
    t_start = start * dt
    spec = GridSpec(dimension=1, half_width=1.0, cells_per_axis=4,
                    t_start=t_start, t_end=t_start + n_steps * dt, dt=dt)
    t_lo, t_hi = t_start + lo * dt, t_start + (lo + length) * dt
    got = Window.slice_range(spec, t_lo, t_hi, pad)
    times = spec.times()
    inside = np.flatnonzero((times >= t_lo - 1e-9) & (times <= t_hi + 1e-9))
    # with nothing inside, the selection is the empty run where it would be
    first = inside[0] if inside.size else int(np.searchsorted(times, t_lo - 1e-9))
    last = inside[-1] if inside.size else first - 1
    assert got == range(max(first - pad, 0), min(last + 1 + pad, spec.n_slices))


class TestPartialField:
    """A field that holds some of its slices, listed in ``kept``."""

    @pytest.fixture()
    def partial(self, box2, rng):
        full = noise_field(box2, rng)
        kept = np.array([3, 4, 5, 9])
        return full, ScalarField(box2, full.values[kept].copy(), kept)

    def test_kept_runs_read_as_the_full_field(self, partial):
        full, f = partial
        assert np.array_equal(f.rows(3, 6), full.values[3:6])
        assert np.array_equal(f.rows(9, 10), full.values[9:10])
        assert f.rows(4, 4).shape == (0, *full.spec.spatial_shape)

    @pytest.mark.parametrize("lo, hi", [(0, 2), (2, 4), (5, 7), (4, 10), (9, 11),
                                        (-1, 3), (10, 11)])
    def test_a_slice_not_kept_raises(self, partial, lo, hi):
        _, f = partial
        with pytest.raises(IndexError, match="not all kept"):
            f.rows(lo, hi)

    def test_full_field_rows_stay_inside_the_grid(self, box2):
        f = const_field(box2, 1.0)
        assert np.shares_memory(f.rows(0, 2), f.values)
        with pytest.raises(IndexError):
            f.rows(box2.n_slices - 1, box2.n_slices + 1)

    def test_shape_must_match_the_kept_slices(self, box2):
        with pytest.raises(ValueError, match="does not hold 2 slices"):
            ScalarField(box2, np.zeros((3, *box2.spatial_shape)), np.array([0, 1]))


@pytest.fixture(scope="module")
def unit_box():
    return GridSpec(dimension=2, half_width=1.0, cells_per_axis=8,
                    t_start=0.0, t_end=1.0, dt=0.5)


class TestGradient:
    def test_constant_has_zero_energy(self, unit_box):
        f = const_field(unit_box, 3.0)
        assert discrete_gradient_norm_p(f, 0, 2.0) == 0.0

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_linear_ramp_integrates_to_box_area(self, unit_box, p):
        f = coordinate_field(unit_box)
        assert discrete_gradient_norm_p(f, 1, p) == pytest.approx(4.0, rel=1e-12)

    def test_power_p_homogeneity(self, box2, rng):
        f = noise_field(box2, rng)
        doubled = field_from_values(f.spec, 2.0 * f.values)
        p = 1.5
        assert discrete_gradient_norm_p(doubled, 0, p) == pytest.approx(
            2.0**p * discrete_gradient_norm_p(f, 0, p), rel=1e-12
        )

    def test_ball_restriction(self, box2):
        f = coordinate_field(box2)
        ball = Window(box2, Cylinder(t_lo=-2.0, t_hi=2.0, radius=0.5))
        inside = discrete_gradient_norm_p(f, 0, 2.0, ball=ball)
        # |grad| = 1 per cell, so this counts lattice disk area.
        assert inside == pytest.approx(math.pi * 0.25, rel=0.5)
        assert inside < discrete_gradient_norm_p(f, 0, 2.0)

    def test_rejects_nonpositive_exponent(self, box2):
        f = const_field(box2, 0.0)
        with pytest.raises(ValueError, match="positive"):
            discrete_gradient_norm_p(f, 0, 0.0)


def oscillation(f, cyl):
    win = Window(f.spec, cyl)
    extrema = tables_of(f, [SliceRead("max", cyl.radius), SliceRead("min", cyl.radius)])
    return extrema.max(win) - extrema.min(win)


class TestOscillation:
    def test_constant_is_flat(self, box2):
        f = const_field(box2, 7.0)
        cyl = Cylinder(t_lo=-1.0, t_hi=0.0, radius=0.5)
        assert oscillation(f, cyl) == 0.0

    def test_coordinate_swing_within_one_cell(self, box2):
        f = coordinate_field(box2)
        cyl = Cylinder(t_lo=-1.0, t_hi=0.0, radius=0.5)
        assert abs(oscillation(f, cyl) - 1.0) <= box2.cell_width + 1e-12

    def test_time_swing_within_one_step(self, box2):
        f = time_field(box2)
        cyl = Cylinder(t_lo=-1.0, t_hi=0.0, radius=1.0)
        assert abs(oscillation(f, cyl) - 1.0) <= box2.dt + 1e-12

    def test_monotone_under_inclusion(self, box2, rng):
        f = noise_field(box2, rng)
        small = Cylinder(t_lo=-0.5, t_hi=0.25, radius=0.4)
        large = Cylinder(t_lo=-1.0, t_hi=1.0, radius=1.0)
        assert oscillation(f, small) <= oscillation(f, large)

    def test_one_cell_jump_spatial(self, box2):
        f = coordinate_field(box2)
        assert one_cell_oscillation(f) == pytest.approx(box2.cell_width, rel=1e-12)

    def test_one_cell_jump_picks_dominant_axis(self, box2):
        f = make_field(box2, lambda t, x: x[..., 0] + t)
        assert one_cell_oscillation(f) == pytest.approx(box2.cell_width, rel=1e-12)


class TestSnapshots:
    def test_round_trip_is_bit_exact(self, box2, rng, tmp_path):
        f = noise_field(box2, rng)
        csv_path, json_path = save_snapshot(f, tmp_path / "state")
        spec = from_json(GridSpec, json.loads(json_path.read_text()), "descriptor")
        assert spec == f.spec
        table = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        values = table[:, -1].reshape(spec.n_slices, *spec.spatial_shape)
        assert values.tobytes() == f.values.tobytes()

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_bytes_match_the_csv_writer(self, dimension, rng, tmp_path):
        spec = GridSpec(dimension=dimension, half_width=1.25, cells_per_axis=4,
                        t_start=-0.5, t_end=0.25, dt=0.25)
        values = rng.standard_normal((spec.n_slices, *spec.spatial_shape))
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, 0.1]
        values.flat[:len(special)] = special
        f = ScalarField(spec, values)
        csv_path, _ = save_snapshot(f, tmp_path / "fast")
        expected = reference.snapshot_csv(f, tmp_path / "writer")
        assert csv_path.read_bytes() == expected.read_bytes()
