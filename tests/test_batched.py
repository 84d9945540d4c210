"""The batched check kernels against per-slice references, bit for bit.

Each reference below is the straightforward loop over time slices that the
batched kernel replaces; the residual's is the whole-field formula in
``reference.py``.  Grids are drawn both smaller than one block of
``grid._BLOCK_CELLS`` cells and spanning several blocks; every comparison
is ``==``.
"""

import math
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreg.degiorgi import (
    UNIT_CYLINDER,
    cutoff_time,
    energy_ladder,
    ladder_reads,
    truncated_energy,
)
from hjreg.grid import (
    _BLOCK_CELLS,
    Cylinder,
    EmptyCylinderError,
    GridSpec,
    ScalarField,
    SliceRead,
    SliceScan,
    SliceTables,
    Window,
    ball_mask,
    discrete_gradient_norm_p,
    field_from_values,
    gradient_norm_p_rows,
    level_set_measure,
    one_cell_oscillation,
)
from hjreg.hamiltonians import CoercivityEnvelope
from hjreg.oscillation import _witness_level, above_reads, dyadic_ladder, time_reverse
from hjreg.rescale import gauge_to_window, resample
from hjreg.solver import (
    ResidualRows,
    ResidualTerm,
    residual_subsolution,
    residual_supersolution,
)

import reference
from conftest import gauge_scan, residual_reports, tables_of
from reference import gauge_shift

# Cells per axis of the small and the multi-block draws; with half-width
# 1.5 and at least 12 cells the unit ball keeps two cells of padding.
_SMALL_CELLS = {1: (12, 40), 2: (12, 20), 3: (12, 14)}
_LARGE_CELLS = {1: (400, 600), 2: (40, 64), 3: (16, 24)}


@st.composite
def fields(draw):
    """A random field on ``[-2, 2] x [-1.5, 1.5]^N``, N in 1..3."""
    dim = draw(st.sampled_from([1, 2, 3]))
    several_blocks = draw(st.booleans())
    lo, hi = (_LARGE_CELLS if several_blocks else _SMALL_CELLS)[dim]
    cells = draw(st.integers(lo, hi))
    per_block = max(1, _BLOCK_CELLS // cells**dim)
    if several_blocks:
        n_steps = draw(st.integers(2 * per_block + 1, 3 * per_block + 1))
    else:
        n_steps = draw(st.integers(1, min(40, per_block - 1)))
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=cells,
                    t_start=-2.0, t_end=2.0, dt=4.0 / n_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (spec.n_slices, *spec.spatial_shape)
    # Values spread over the dyadic bands below 2, plus a rough component.
    values = rng.uniform(-0.5, 2.2, shape) + 0.05 * rng.standard_normal(shape)
    return field_from_values(spec, values)


@st.composite
def cylinders(draw):
    t_lo = draw(st.floats(-2.5, 1.9))
    t_hi = draw(st.floats(t_lo + 0.05, 2.5))
    return Cylinder(t_lo, t_hi, draw(st.floats(0.2, 1.0)))


def _windows(data, f):
    """A drawn cylinder's window on ``f``'s grid, or None when it selects
    no cells."""
    try:
        return Window(f.spec, data.draw(cylinders()))
    except EmptyCylinderError:
        return None


def _reference_level_set(f, win, lo, hi, closed_upper):
    total = 0.0
    for i in win.weighted_slices():
        vals = f.values[i][win.mask]
        inside = (vals > lo) & ((vals <= hi) if closed_upper else (vals < hi))
        total += win.weights[i] * f.spec.cell_volume * int(np.count_nonzero(inside))
    return float(total)


def _reference_gradient_norm_p(slice_values, spec, p, mask):
    h = spec.cell_width
    total = np.zeros_like(slice_values)
    for axis in range(spec.dimension):
        d = np.diff(slice_values, axis=axis) / h
        d = np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)
        total += d * d
    if mask is not None:
        total = total[mask]
    return float(np.sum(total ** (p / 2.0)) * spec.cell_volume)


def _reference_one_cell(f, win):
    if win is None:
        return float(max(np.abs(np.diff(f.values, axis=a)).max(initial=0.0)
                         for a in range(f.values.ndim)))
    mask = win.mask
    jump = 0.0
    for i in range(win.slices[0], win.slices[-1] + 1):
        if i < win.slices[-1]:
            step = np.abs(f.values[i + 1] - f.values[i])
            jump = max(jump, float(step[mask].max()))
        for axis in range(f.spec.dimension):
            n = mask.shape[axis]
            pair = (np.take(mask, np.arange(n - 1), axis=axis)
                    & np.take(mask, np.arange(1, n), axis=axis))
            if np.any(pair):
                d = np.abs(np.diff(f.values[i], axis=axis))
                jump = max(jump, float(d[pair].max()))
    return jump


@settings(max_examples=40, deadline=None)
@given(f=fields(), p=st.floats(1.1, 2.5), a=st.floats(0.1, 4.0), b=st.floats(0.0, 2.0))
def test_residuals_match_the_per_slice_loop(f, p, a, b):
    env = CoercivityEnvelope(lam=1.0, p=p)
    sub = residual_subsolution(f, env, a_coef=a, b_const=b)
    expected = reference.residual(f, p, a, b)
    assert np.array_equal(sub.values, reference.table(expected))
    assert sub.max_positive == float(max(expected.max(), 0.0))
    assert sub.min_value == float(expected.min())
    sup = residual_supersolution(f, env, a_coef=a)
    assert np.array_equal(sup.values,
                          reference.table(reference.residual(f, p, a, 0.0)))


@st.composite
def blocked_fields(draw):
    """A small field, random or a time-constant cone with a flat top (exact
    zeros in its differences), with a block size of a few slices."""
    dim = draw(st.sampled_from([1, 2, 3]))
    cells = draw(st.integers(*_SMALL_CELLS[dim]))
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=cells,
                    t_start=-2.0, t_end=2.0, dt=4.0 / draw(st.integers(3, 12)))
    if draw(st.booleans()):
        f = reference.make_field(
            spec, lambda t, x: np.minimum(np.abs(x).max(axis=-1), 0.75))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        f = field_from_values(
            spec, rng.uniform(-1.0, 1.0, (spec.n_slices, *spec.spatial_shape)))
    return f, draw(st.integers(2, 4)) * cells**dim


@settings(max_examples=60, deadline=None)
@given(fb=blocked_fields(), p=st.floats(1.1, 2.5), a=st.floats(0.1, 4.0),
       b=st.floats(0.0, 2.0), with_ball=st.booleans())
def test_residuals_match_with_slice_boundaries_inside_a_block(fb, p, a, b,
                                                              with_ball):
    """Blocks of two to four slices: each spatial axis's raveled difference
    runs across the slice boundaries inside a block, where the backward
    difference must read 0.0, as at the box edge.  A pass with a reflected
    term takes the gradient of one more slice per block."""
    f, block_cells = fb
    ball = (np.linalg.norm(f.spec.centers(), axis=-1) < 1.0) if with_ball else None
    env = CoercivityEnvelope(lam=1.0, p=p)
    lower, upper = ResidualTerm(a), ResidualTerm(a, b)
    reflected = upper._replace(reflected=True)
    with mock.patch("hjreg.grid._BLOCK_CELLS", block_cells):
        sub = residual_subsolution(f, env, a_coef=a, b_const=b, ball=ball)
        reports = residual_reports(f, env, [lower, upper, reflected], ball)
        mirrored = residual_subsolution(reference.reflect(f), env, a_coef=a,
                                        b_const=b, ball=ball)
    expected = reference.table(reference.residual(f, p, a, b), ball)
    assert np.array_equal(sub.values, expected)
    assert np.array_equal(reports[upper].values, expected)
    assert np.array_equal(
        reports[lower].values,
        reference.table(reference.residual(f, p, a, 0.0), ball))
    assert reports[reflected].values.tobytes() == mirrored.values.tobytes()


def test_readers_take_values_that_are_not_c_contiguous():
    """A field whose values are not C-contiguous (a strided view): the
    residual and the one-cell jump read such a field like a copy."""
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=12,
                    t_start=-2.0, t_end=2.0, dt=0.5)
    values = np.random.default_rng(5).uniform(-1.0, 1.0, (spec.n_slices, 12, 12))
    strided = ScalarField(spec, np.asfortranarray(values))
    f = field_from_values(spec, values)
    assert not strided.values.flags.c_contiguous
    env = CoercivityEnvelope(lam=1.0, p=1.5)
    assert np.array_equal(residual_subsolution(strided, env).values,
                          residual_subsolution(f, env).values)
    for win in (None, Window(spec, Cylinder(-1.0, 1.0, 1.0))):
        assert one_cell_oscillation(strided, win) == one_cell_oscillation(f, win)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), f=fields(), p=st.floats(1.1, 2.5), a=st.floats(0.1, 4.0),
       b=st.floats(0.0, 2.0), a_up=st.floats(0.1, 4.0), b_up=st.floats(0.0, 2.0))
def test_reduced_residuals_equal_the_array_form(data, f, p, a, b, a_up, b_up):
    env = CoercivityEnvelope(lam=1.0, p=p)
    seed = data.draw(st.integers(0, 2**32 - 1))
    ball = np.random.default_rng(seed).random(f.spec.spatial_shape) < 0.3
    ball.flat[data.draw(st.integers(0, ball.size - 1))] = True
    full = reference.residual(f, p, a, b)
    reduced = residual_subsolution(f, env, a_coef=a, b_const=b, ball=ball)
    assert reduced.values.shape == (f.spec.n_slices - 1, 3)
    assert np.array_equal(reduced.values, reference.table(full, ball))
    assert reduced.min_value == float(full.min())
    assert reduced.max_positive == float(max(full.max(), 0.0))
    assert reduced.ball_max == float(full[:, ball].max())
    # both inequalities from one pass against two whole-field residuals
    both = residual_reports(f, env, [ResidualTerm(a_up), ResidualTerm(a, b)], ball)
    lower = reference.residual(f, p, a_up, 0.0)
    first = both[ResidualTerm(a_up)]
    assert np.array_equal(first.values, reference.table(lower, ball))
    assert first.min_value == float(lower.min())
    assert first.ball_max == float(lower[:, ball].max())
    assert np.array_equal(both[ResidualTerm(a, b)].values, reduced.values)
    upper = reference.residual(f, p, a_up, b_up)
    paired = residual_reports(f, env, [ResidualTerm(a), ResidualTerm(a_up, b_up)])
    assert np.array_equal(paired[ResidualTerm(a_up, b_up)].values,
                          reference.table(upper))
    assert np.array_equal(paired[ResidualTerm(a)].values,
                          reference.table(reference.residual(f, p, a, 0.0)))


@settings(max_examples=100, deadline=None)
@given(f=fields(), lam=st.floats(1.0, 3.0), p=st.floats(1.1, 2.5),
       shift_t=st.floats(-2.5, 2.5), scale_t=st.floats(0.0, 3.0),
       scale_x=st.floats(0.1, 2.0), shift_x=st.floats(-0.5, 0.5))
def test_gauged_rows_equal_the_shifted_field(f, lam, p, shift_t, scale_t,
                                             scale_x, shift_x):
    env = CoercivityEnvelope(lam=lam, p=p)
    out, gauged, gamma = gauge_to_window(f, env)
    assert gauged == bool(
        reference.residual(f, p, lam, 0.0).min() < -f.spec.residual_tol
    )
    shifted = gauge_shift(f, env) if gauged else f
    sup = float(max(shifted.values.max(), -shifted.values.min()))
    assert gamma == (1.0 if sup <= 2.0 else 2.0 / sup)
    # a window-shaped resample, reading only the slices its queries bracket
    dim = f.spec.dimension
    target = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=5,
                      t_start=-1.0, t_end=0.0, dt=0.125)
    affine = dict(time_scale=scale_t, time_shift=shift_t, space_scale=scale_x,
                  space_shift=(shift_x,) * dim, value_scale=gamma)
    expected = resample(shifted, target, **affine)
    assert np.array_equal(resample(out, target, **affine).values, expected.values)
    if not gauged:
        assert np.array_equal(
            resample(gauge_shift(f, env), target, **affine).values,
            resample(replace(out, rate=lam), target, **affine).values,
        )


@st.composite
def time_constant_fields(draw):
    """A field equal on every slice, so its supersolution residual ``lam
    |grad u|^p`` is >= 0 everywhere, and the slices in one residual block;
    multi-block slice counts straddle a block boundary."""
    dim = draw(st.sampled_from([1, 2, 3]))
    several_blocks = draw(st.booleans())
    lo, hi = (_LARGE_CELLS if several_blocks else _SMALL_CELLS)[dim]
    cells = draw(st.integers(lo, hi))
    per_block = max(1, _BLOCK_CELLS // cells**dim)
    if several_blocks:
        n_steps = draw(st.integers(1, 3)) * per_block + draw(st.integers(-1, 1))
    else:
        n_steps = draw(st.integers(1, 40))
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=cells,
                    t_start=-2.0, t_end=2.0, dt=4.0 / n_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    row = draw(st.floats(-1.0, 1.0)) + spec.cell_width * rng.uniform(
        -1.0, 1.0, spec.spatial_shape)
    return spec, np.repeat(row[None], spec.n_slices, axis=0), per_block


@settings(max_examples=100, deadline=None)
@given(data=st.data(), lam=st.floats(1.0, 3.0), p=st.floats(1.1, 2.5))
def test_gauge_stops_at_the_first_failing_block_like_the_full_scan(data, lam, p):
    spec, values, per_block = data.draw(time_constant_fields())
    env = CoercivityEnvelope(lam=lam, p=p)
    rows, tol = spec.n_slices - 1, spec.residual_tol
    edges = (k * per_block + d for k in range(1, 4) for d in (-1, 0, 1))
    dip = data.draw(st.sampled_from(
        [None, 0, rows - 1, *(r for r in edges if 0 <= r < rows)]))
    if dip is not None:
        clean = residual_supersolution(field_from_values(spec, values), env)
        cell = data.draw(st.integers(0, values[0].size - 1))
        # row ``dip`` drops below -tol - 1 at the cell, whatever its gradient
        values[dip + 1].flat[cell] -= spec.dt * (clean.max_positive + tol + 1.0)
    f = field_from_values(spec, values)
    scan, tables, gauge_rows = gauge_scan(spec, env)
    scan.read(f)
    [report] = gauge_rows.reports()
    out, gauged, gamma = gauge_to_window(f, env, tables, report)
    whole, whole_gauged, whole_gamma = gauge_to_window(f, env)
    assert (whole.rate, whole_gauged, whole_gamma) == (out.rate, gauged, gamma)
    assert gauged == bool(residual_supersolution(f, env).min_value < -tol)
    assert gauged == (dip is not None)
    shifted = gauge_shift(f, env) if gauged else f
    sup = float(max(shifted.values.max(), -shifted.values.min()))
    assert gamma == (1.0 if sup <= 2.0 else 2.0 / sup)
    # every row up to the end of the dip's block, or all of a clean field
    end = rows if dip is None else min((dip // per_block + 1) * per_block, rows)
    assert len(report.values) == end


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields(), closed_upper=st.booleans(),
       lo=st.floats(-1.0, 1.5), width=st.floats(0.0, 1.5))
def test_level_set_measure_matches_the_per_slice_loop(data, f, closed_upper, lo, width):
    win = _windows(data, f)
    if win is None:
        return
    expected = _reference_level_set(f, win, lo, lo + width, closed_upper)
    assert level_set_measure(f, win, lo, lo + width, closed_upper) == expected
    assert level_set_measure(f, win) == _reference_level_set(
        f, win, -math.inf, math.inf, False
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields(), radius=st.floats(0.2, 1.0),
       fractions=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
def test_window_volume_is_the_measure_of_the_whole_cylinder(data, f, radius,
                                                            fractions):
    """``Window.volume`` is ``level_set_measure`` with both bounds open on a
    finite field, for a cylinder whose ends both fall between slice times."""
    spec = f.spec
    i = data.draw(st.integers(0, spec.n_slices - 2))
    j = data.draw(st.integers(i + 1, spec.n_slices - 1))
    t_lo = spec.t_start + spec.dt * (i + fractions[0])
    t_hi = spec.t_start + spec.dt * (j + fractions[1])
    try:
        win = Window(spec, Cylinder(t_lo, t_hi, radius))
    except EmptyCylinderError:
        return
    assert win.volume == level_set_measure(f, win)


@settings(max_examples=40, deadline=None)
@given(f=fields(), depth=st.integers(1, 14), threshold=st.floats(0.0, 2.0))
def test_witness_measures_match_the_dyadic_ladder(f, depth, threshold):
    win = Window(f.spec, UNIT_CYLINDER)
    chain = SimpleNamespace(ladder_depth=depth, middle_threshold=threshold)
    witness, measures = _witness_level(tables_of(f, above_reads(chain)), chain, win)
    expected = [
        level_set_measure(dyadic_ladder(f, k), win, lo=0.0, hi=1.0)
        for k in range(1, depth + 1)
    ]
    assert measures == expected
    thin = [k for k, m in enumerate(expected, start=1) if m <= threshold]
    assert witness == (thin[0] if thin else None)


def test_witness_band_edges_match_the_dyadic_ladder():
    """Values exactly at each band edge ``2 - 2^(1-k)`` and
    ``2 - 2^(1-k) + 2^-k``, and one ulp either side of each."""
    depth = 12
    edges = [2.0 - 2.0 ** (1 - k) for k in range(1, depth + 1)]
    edges += [e + 2.0**-k for k, e in enumerate(edges, start=1)]
    values = sorted({v for e in edges
                     for v in (np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf))})
    spec = GridSpec(dimension=1, half_width=1.5, cells_per_axis=2 * len(values),
                    t_start=-2.0, t_end=2.0, dt=0.5)
    row = np.full(spec.spatial_shape, -1.0)
    inside = np.flatnonzero(np.abs(spec.axis_centers()) < 1.0)
    row[inside[: len(values)]] = values
    f = field_from_values(spec, np.broadcast_to(row, (spec.n_slices, *row.shape)))
    win = Window(spec, UNIT_CYLINDER)
    chain = SimpleNamespace(ladder_depth=depth, middle_threshold=0.0)
    _, measures = _witness_level(tables_of(f, above_reads(chain)), chain, win)
    expected = [level_set_measure(dyadic_ladder(f, k), win, lo=0.0, hi=1.0)
                for k in range(1, depth + 1)]
    assert measures == expected
    # Band k holds exactly one ulp above its lower edge and one below its
    # upper edge; the edges themselves belong to no band.
    two_cells = 2 * spec.cell_volume * (UNIT_CYLINDER.t_hi - UNIT_CYLINDER.t_lo)
    assert measures == [pytest.approx(two_cells, rel=1e-12)] * depth


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields())
def test_window_reductions_match_the_per_slice_loop(data, f):
    win = _windows(data, f)
    if win is None:
        return
    values = f.values
    extrema = tables_of(f, [SliceRead("max", win.radius), SliceRead("min", win.radius)])
    assert extrema.max(win) == max(float(values[i][win.mask].max()) for i in win.slices)
    assert extrema.min(win) == min(float(values[i][win.mask].min()) for i in win.slices)
    vol = f.spec.cell_volume
    above = data.draw(st.floats(-1.0, 2.5))
    expected = float(sum(
        win.weights[i] * np.maximum(values[i][win.mask] - above, 0.0).sum() * vol
        for i in win.weighted_slices()))
    tables = tables_of(f, [SliceRead("excess", win.radius, (above,))])
    assert tables.integral(win, above) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields(), whole_box=st.booleans())
def test_one_cell_oscillation_matches_the_per_slice_loop(data, f, whole_box):
    win = None if whole_box else _windows(data, f)
    if win is None and not whole_box:
        return
    expected = _reference_one_cell(f, win)
    assert one_cell_oscillation(f, win) == expected
    assert reference.one_cell_oscillation(f, win) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), f=fields(), whole_box=st.booleans(),
       per_block=st.integers(1, 4))
def test_one_cell_oscillation_matches_the_gathered_pairs(data, f, whole_box,
                                                         per_block):
    """Shifted-slice differences against the ``np.take`` gather of every
    neighbour pair, also with blocks of a few slices, so that block edges
    fall inside the window."""
    win = None if whole_box else _windows(data, f)
    if win is None and not whole_box:
        return
    expected = reference.one_cell_oscillation(f, win)
    assert one_cell_oscillation(f, win) == expected
    cells = math.prod(f.spec.spatial_shape)
    with mock.patch("hjreg.grid._BLOCK_CELLS", per_block * cells):
        assert one_cell_oscillation(f, win) == expected


@settings(max_examples=40, deadline=None)
@given(f=fields(), level=st.integers(1, 6), p=st.floats(1.1, 2.5))
def test_truncated_energy_matches_the_per_slice_loop(f, level, p):
    spec = f.spec
    win = Window(spec, Cylinder(cutoff_time(level), 2.0, 1.0))
    trunc = np.maximum(f.values - cutoff_time(level), 0.0)
    vol = spec.cell_volume
    sup_term = max(float(trunc[i][win.mask].sum()) * vol for i in win.slices)
    grad_term = 0.0
    for i in win.weighted_slices():
        grad_term += win.weights[i] * _reference_gradient_norm_p(
            trunc[i], spec, p, win.mask
        )
    env = CoercivityEnvelope(lam=1.0, p=p)
    tables = tables_of(f, ladder_reads(spec, level, env))
    assert truncated_energy(tables, level, env) == sup_term + grad_term
    i = int(win.slices[-1])
    assert discrete_gradient_norm_p(f, i, p) == _reference_gradient_norm_p(
        f.values[i], spec, p, None
    )
    assert discrete_gradient_norm_p(f, i, p, ball=win) == _reference_gradient_norm_p(
        f.values[i], spec, p, win.mask
    )


@settings(max_examples=40, deadline=None)
@given(f=fields(), p=st.floats(1.1, 2.5), radius=st.sampled_from([None, 0.5, 1.0]))
def test_gradient_rows_equal_the_reference_oracle(f, p, radius):
    """The rows' shifted-slice differences, the upper edge's entry copied
    from the one before it, give each slice's integral of ``|grad f|^p``
    as the oracle's ``np.diff`` and ``concatenate`` do, bit for bit."""
    spec = f.spec
    mask = None if radius is None else ball_mask(spec, radius)
    cells = None if mask is None else np.flatnonzero(mask)
    want = [reference.gradient_norm_p(values, spec, p, mask) for values in f.values]
    assert gradient_norm_p_rows(f.values, spec, p, cells).tolist() == want


@pytest.mark.parametrize("whole_box", [True, False])
def test_one_cell_oscillation_sees_a_time_jump_between_blocks(whole_box):
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=64,
                    t_start=-2.0, t_end=2.0, dt=0.05)
    per_block = _BLOCK_CELLS // 64**2
    values = np.zeros((spec.n_slices, *spec.spatial_shape))
    values[per_block:] = 1.0
    f = field_from_values(spec, values)
    win = None if whole_box else Window(spec, UNIT_CYLINDER)
    assert one_cell_oscillation(f, win) == 1.0


residual_terms = st.builds(ResidualTerm, st.floats(0.1, 4.0),
                           st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
                           st.booleans(), stop_below=st.none())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), f=fields(), per_block=st.integers(1, 4), p=st.floats(1.1, 2.5),
       levels=st.integers(1, 3), terms=st.lists(residual_terms, min_size=1, max_size=3))
def test_streamed_tables_equal_the_whole_field_oracles(data, f, per_block, p, levels,
                                                       terms):
    """The tables and residual rows a march feeds a slice at a time, in
    blocks of one to four slices (so that windows start and end inside a
    block and the overlap slice carries the time differences), give every
    value a check reads bit for bit as the whole-field oracles do: the
    window's extrema, level-set measures, excess integral and jumps, the
    box's jumps, the energy ladder and the residual tables, and the same
    reads of the reflection ``-f(-t, x)`` through ``time_reverse``.  Some
    slices are shifted to peak at a drawn height, so that their
    truncations are zero or small at some ladder levels."""
    win = _windows(data, f)
    if win is None:
        return
    spec, r = f.spec, win.radius
    sunk = data.draw(st.lists(st.integers(0, spec.n_slices - 1), max_size=spec.n_slices))
    values = f.values.copy()
    peaks = values[sunk].max(axis=tuple(range(1, values.ndim)), keepdims=True)
    values[sunk] += data.draw(st.floats(-0.5, 1.0)) - peaks
    f = field_from_values(spec, values)
    count = (data.draw(st.sampled_from([0.0, 1.0, 1.5, 1.75])),
             data.draw(st.floats(-1.0, 1.5)), data.draw(st.floats(0.0, 1.5)),
             data.draw(st.booleans()))
    shift, lo, width, closed = count
    count = (shift, lo, lo + width, closed)
    above = data.draw(st.floats(-1.0, 2.5))
    env = CoercivityEnvelope(lam=1.0, p=p)
    signed = [SliceRead("max", r), SliceRead("min", r), SliceRead("count", r, count),
              SliceRead("excess", r, (above,))]
    reads = [*signed, *(read._replace(negated=True) for read in signed),
             SliceRead("jumps", r), SliceRead("jumps", None), *ladder_reads(spec, levels, env)]
    unique = list(dict.fromkeys(terms))
    with mock.patch("hjreg.grid._BLOCK_CELLS", per_block * math.prod(spec.spatial_shape)):
        tables = SliceTables(spec, reads)
        rows = ResidualRows(spec, p, unique, win.mask)
        scan = SliceScan(spec, [tables, rows])
        for i in range(spec.n_slices):
            scan(i, f.values[i].copy())
    mirror = reference.reflect(f)
    for source, view in ((f, tables), (mirror, time_reverse(tables))):
        assert view.max(win) == reference.window_max(source, win)
        assert view.min(win) == reference.window_min(source, win)
        assert view.measure(win, lo, lo + width, closed, shift) == reference.measure(
            source, win, lo, lo + width, closed, shift)
        assert view.integral(win, above) == reference.integral(source, win, above)
        assert view.one_cell(win) == reference.one_cell_oscillation(source, win)
        assert view.one_cell() == reference.one_cell_oscillation(source)
    ladder = [reference.truncated_energy(f, k, p, Window(spec, Cylinder(
        cutoff_time(k), 2.0, 1.0))) for k in range(1, levels + 1)]
    assert energy_ladder(tables, levels, env).tolist() == ladder
    for term, report in zip(unique, rows.reports()):
        full = reference.residual(mirror if term.reflected else f, p, term.a, term.b)
        assert np.array_equal(report.values, reference.table(full, win.mask))
        assert (report.min_value, report.ball_max) == (
            float(full.min()), float(full[:, win.mask].max()))


def _count_rows(values, mask, shift, lo, hi, closed):
    """Each slice's count of ``lo < v - shift < hi`` (``<= hi`` when
    ``closed``) over the cells of ``mask``, one slice at a time."""
    out = []
    for row in values:
        vals = row[mask] - shift
        out.append(int(np.count_nonzero((vals > lo) & ((vals <= hi) if closed else (vals < hi)))))
    return np.array(out)


def _band(data, vals):
    """``(lo, hi)`` drawn wholly below, wholly above, around or across the
    values ``vals``, with its edges on an extreme, one ulp off it, or a
    distance away."""
    low, high = float(vals.min()), float(vals.max())
    place = data.draw(st.sampled_from(["below", "above", "inside", "across"]))
    off = data.draw(st.sampled_from(["on", "ulp", "gap"]))
    width = data.draw(st.sampled_from([0.0, 0.25, 2.0]))

    def edge(v, direction):
        return {"on": v, "ulp": float(np.nextafter(v, direction * np.inf)),
                "gap": v + direction * 0.25}[off]

    if place == "below":
        hi = edge(low, -1.0)
        return hi - width, hi
    if place == "above":
        lo = edge(high, 1.0)
        return lo, lo + width
    if place == "inside":
        return edge(low, -1.0), edge(high, 1.0)
    lo = data.draw(st.floats(low, high))
    return lo, lo + width


@settings(max_examples=80, deadline=None)
@given(data=st.data(), f=fields(), per_block=st.integers(1, 4),
       shift=st.sampled_from([0.0, 1.0, 1.5]), closed=st.booleans(),
       negated=st.booleans(), offset=st.sampled_from([0.0, -10.0, 10.0]))
def test_range_pruned_reads_equal_the_oracles(data, f, per_block, shift, closed, negated,
                                              offset):
    """Counts, excesses and gradients whose block range decides them read
    as the per-slice oracles do, bit for bit.  The band is placed against
    the range of the whole field or of one slice (so that some blocks are
    decided and others not), the count may be shifted and negated, its
    reads may start inside a block, and a second member, moved far off by
    ``offset``, marches in the same batch; the band is placed against
    either member's values, so that often only one member's row reaches
    it."""
    spec, win = f.spec, Window(f.spec, UNIT_CYLINDER)
    mask = win.mask
    values = f.values.copy()
    sunk = data.draw(st.lists(st.integers(0, spec.n_slices - 1), max_size=spec.n_slices))
    values[sunk] -= data.draw(st.floats(0.0, 3.0))
    sign = -1.0 if negated else 1.0
    batch = [values, values + offset]
    anchor = batch[data.draw(st.integers(0, 1))]
    if data.draw(st.booleans()):
        anchor = anchor[data.draw(st.integers(0, spec.n_slices - 1))][None]
    lo, hi = _band(data, sign * anchor[:, mask] - shift)
    first = data.draw(st.integers(0, spec.n_slices - 1))
    count = (shift, lo, hi, closed)
    c = data.draw(st.sampled_from([float(values.max()), float(values.min()) - 0.5,
                                   float(np.median(values))]))
    reads = [SliceRead("count", 1.0, count, negated), SliceRead("count", 1.0, count, negated, first),
             SliceRead("excess", 1.0, (c,), negated, first), SliceRead("gradient", 1.0, (c, 1.5))]
    members = np.stack(batch, axis=1)
    cells = math.prod(spec.spatial_shape)
    with mock.patch("hjreg.grid._BLOCK_CELLS", 4 * per_block * cells):
        tables = SliceTables(spec, reads, members=2)
        scan = SliceScan(spec, [tables], members=2)
        for i in range(spec.n_slices):
            scan(i, members[i].copy())
    for m, member in enumerate(batch):
        signed = sign * member
        expected = _count_rows(signed, mask, shift, lo, hi, closed)
        assert np.array_equal(tables.tables[reads[0]][m], expected)
        late = tables.tables[reads[1]][m]
        assert np.array_equal(late[first:], expected[first:])
        assert not late[:first].any()
        excess = tables.tables[reads[2]][m]
        assert excess[first:].tolist() == [
            float(np.maximum(row[mask] - c, 0.0).sum()) for row in signed[first:]]
        assert not excess[:first].any()
        gradient = tables.tables[reads[3]][m]
        trunc = np.maximum(member - c, 0.0)
        assert gradient.tolist() == [reference.gradient_norm_p(row, spec, 1.5, mask)
                                     for row in trunc]
    field = field_from_values(spec, values)
    view = tables.member(0)
    source = field
    if negated:
        view, source = time_reverse(view), reference.reflect(field)
    assert view.measure(win, lo, hi, closed, shift) == reference.measure(
        source, win, lo, hi, closed, shift)


def test_a_block_below_every_band_computes_no_count(monkeypatch):
    """A field whose first block lies below every band of the improvement
    from above (its dyadic middle layers, and the nonpositive set, which
    then holds every cell) fills that block's counts from its range alone;
    the later blocks, whose values cross the bands, count their cells."""
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=16,
                    t_start=-2.0, t_end=2.0, dt=4.0 / 40)
    per_block = 10
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.5, 2.0, (spec.n_slices, 16, 16))
    values[:per_block] -= 3.0
    f = field_from_values(spec, values)
    chain = SimpleNamespace(ladder_depth=6)
    computed, block = [], []
    take, fill = SliceTables.take, SliceTables._fill

    def spy_take(self, lo, hi, slab):
        block[:] = [lo]
        return take(self, lo, hi, slab)

    def spy_fill(self, blk, read, skip, out):
        done = fill(self, blk, read, skip, out)
        if done and read.kind == "count":
            computed.append(block[0])
        return done

    monkeypatch.setattr(SliceTables, "take", spy_take)
    monkeypatch.setattr(SliceTables, "_fill", spy_fill)
    with mock.patch("hjreg.grid._BLOCK_CELLS", per_block * 16 * 16):
        tables = tables_of(f, above_reads(chain))
    assert computed and 0 not in computed
    win = Window(spec, UNIT_CYLINDER)
    for read, table in tables.tables.items():
        if read.kind == "count":
            shift, lo, hi, closed = read.arg
            assert np.array_equal(table[0], _count_rows(values, win.mask, shift, lo, hi, closed))


@pytest.mark.parametrize("with_ball", [False, True])
def test_residual_rows_subtract_a_negative_zero_offset(with_ball):
    """The rows skip ``res -= b`` only for ``b = +0.0``, which keeps every
    bit: with a negative coefficient and a step from ``+0.0`` to ``-0.0``
    every residual is ``-0.0``, and ``b = -0.0`` turns it into ``+0.0`` as
    the whole-field formula does."""
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=12,
                    t_start=-2.0, t_end=2.0, dt=0.5)
    values = np.zeros((spec.n_slices, 12, 12))
    values[1::2] = -0.0
    f = field_from_values(spec, values)
    ball = (np.linalg.norm(spec.centers(), axis=-1) < 1.0) if with_ball else None
    env = CoercivityEnvelope(lam=1.0, p=2.0)
    for b in (0.0, -0.0):
        report = residual_subsolution(f, env, a_coef=-1.0, b_const=b, ball=ball)
        expected = reference.table(reference.residual(f, 2.0, -1.0, b), ball)
        assert report.values.tobytes() == expected.tobytes()
