"""The batched check kernels against per-slice references, bit for bit.

Each reference below is the straightforward loop over time slices that the
batched kernel replaces.  Grids are drawn both smaller than one block of
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

from hjreg import rescale
from hjreg.degiorgi import cutoff_time, truncated_energy
from hjreg.grid import (
    _BLOCK_CELLS,
    Cylinder,
    EmptyCylinderError,
    GridSpec,
    Window,
    discrete_gradient_norm_p,
    field_from_values,
    level_set_measure,
    one_cell_oscillation,
)
from hjreg.hamiltonians import CoercivityEnvelope, gauge_shift
from hjreg.oscillation import _witness_level, dyadic_ladder
from hjreg.rescale import gauge_to_window, resample
from hjreg.solver import residual_subsolution, residual_supersolution

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
def cylinders(draw, dim):
    t_lo = draw(st.floats(-2.5, 1.9))
    t_hi = draw(st.floats(t_lo + 0.05, 2.5))
    center = tuple(draw(st.floats(-0.4, 0.4)) for _ in range(dim))
    return Cylinder(t_lo, t_hi, center, draw(st.floats(0.2, 1.0)))


def _reference_residual(f, p, a, b):
    spec = f.spec
    h = spec.cell_width
    out = np.empty((spec.n_slices - 1, *spec.spatial_shape))
    for i in range(spec.n_slices - 1):
        u = f.values[i]
        comps = []
        for axis in range(spec.dimension):
            n = u.shape[axis]
            padded = np.concatenate(
                [np.take(u, [0], axis=axis), u, np.take(u, [-1], axis=axis)],
                axis=axis,
            )
            fwd = (np.take(padded, np.arange(2, n + 2), axis=axis) - u) / h
            bwd = (u - np.take(padded, np.arange(0, n), axis=axis)) / h
            comps.append(0.5 * (fwd + bwd))
        pnorm = np.linalg.norm(np.stack(comps, axis=-1), axis=-1)
        out[i] = (f.values[i + 1] - f.values[i]) / spec.dt + a * pnorm**p - b
    return out


def _reference_level_set(f, cyl, lo, hi, closed_upper):
    win = Window(f.spec, cyl)
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


def _reference_one_cell(f, cyl):
    if cyl is None:
        return float(max(np.abs(np.diff(f.values, axis=a)).max(initial=0.0)
                         for a in range(f.values.ndim)))
    win = Window(f.spec, cyl)
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
    expected = _reference_residual(f, p, a, b)
    assert np.array_equal(sub.values, expected)
    assert sub.max_positive == float(max(expected.max(), 0.0))
    assert sub.min_value == float(expected.min())
    sup = residual_supersolution(f, env, a_coef=a)
    assert np.array_equal(sup.values, _reference_residual(f, p, a, 0.0))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), f=fields(), p=st.floats(1.1, 2.5), a=st.floats(0.1, 4.0),
       b=st.floats(0.0, 2.0), a_up=st.floats(0.1, 4.0), b_up=st.floats(0.0, 2.0))
def test_reduced_residuals_equal_the_array_form(data, f, p, a, b, a_up, b_up):
    env = CoercivityEnvelope(lam=1.0, p=p)
    seed = data.draw(st.integers(0, 2**32 - 1))
    ball = np.random.default_rng(seed).random(f.spec.spatial_shape) < 0.3
    ball.flat[data.draw(st.integers(0, ball.size - 1))] = True
    full = residual_subsolution(f, env, a_coef=a, b_const=b)
    reduced = residual_subsolution(f, env, a_coef=a, b_const=b, ball=ball,
                                   reduce=True)
    rows = full.values.reshape(len(full.values), -1)
    assert reduced.values.shape == (f.spec.n_slices - 1, 3)
    assert np.array_equal(reduced.values[:, 0], rows.min(axis=1))
    assert np.array_equal(reduced.values[:, 1], rows.max(axis=1))
    assert reduced.min_value == full.min_value == float(full.values.min())
    assert reduced.max_positive == full.max_positive
    assert reduced.ball_max == float(full.values[:, ball].max())
    # both inequalities from one pass against two array-form calls
    both = residual_supersolution(f, env, a_coef=a_up, ball=ball, reduce=True,
                                  upper=(a, b))
    lower = residual_supersolution(f, env, a_coef=a_up)
    assert both.min_value == lower.min_value
    assert both.ball_max == float(lower.values[:, ball].max())
    assert np.array_equal(both.upper.values, reduced.values)
    assert both.upper.upper is None
    upper = residual_subsolution(f, env, a_coef=a_up, b_const=b_up)
    paired = residual_supersolution(f, env, a_coef=a, upper=(a_up, b_up))
    assert np.array_equal(paired.upper.values, upper.values)
    assert np.array_equal(paired.values, residual_supersolution(f, env, a).values)


@settings(max_examples=100, deadline=None)
@given(f=fields(), lam=st.floats(1.0, 3.0), p=st.floats(1.1, 2.5),
       shift_t=st.floats(-2.5, 2.5), scale_t=st.floats(0.0, 3.0),
       scale_x=st.floats(0.1, 2.0), shift_x=st.floats(-0.5, 0.5))
def test_gauged_rows_equal_the_shifted_field(f, lam, p, shift_t, scale_t,
                                             scale_x, shift_x):
    env = CoercivityEnvelope(lam=lam, p=p)
    out, gauged, gamma = gauge_to_window(f, env)
    assert gauged == bool(
        residual_supersolution(f, env).min_value < -f.spec.residual_tol
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
    read = []

    def counted(*args, **kwargs):
        report = residual_supersolution(*args, **kwargs)
        read.append(report.values.shape[0])
        return report

    with mock.patch.object(rescale, "residual_supersolution", counted):
        out, gauged, gamma = gauge_to_window(f, env)
    assert gauged == bool(residual_supersolution(f, env).min_value < -tol)
    assert gauged == (dip is not None)
    shifted = gauge_shift(f, env) if gauged else f
    sup = float(max(shifted.values.max(), -shifted.values.min()))
    assert gamma == (1.0 if sup <= 2.0 else 2.0 / sup)
    # every row up to the end of the dip's block, or all of a clean field
    end = rows if dip is None else min((dip // per_block + 1) * per_block, rows)
    assert sum(read) == end


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields(), closed_upper=st.booleans(),
       lo=st.floats(-1.0, 1.5), width=st.floats(0.0, 1.5))
def test_level_set_measure_matches_the_per_slice_loop(data, f, closed_upper, lo, width):
    cyl = data.draw(cylinders(f.spec.dimension))
    try:
        expected = _reference_level_set(f, cyl, lo, lo + width, closed_upper)
    except EmptyCylinderError:
        with pytest.raises(EmptyCylinderError):
            level_set_measure(f, cyl, lo, lo + width, closed_upper)
        return
    assert level_set_measure(f, cyl, lo, lo + width, closed_upper) == expected
    assert level_set_measure(f, cyl) == _reference_level_set(
        f, cyl, -math.inf, math.inf, False
    )


@settings(max_examples=40, deadline=None)
@given(f=fields(), depth=st.integers(1, 14), threshold=st.floats(0.0, 2.0))
def test_witness_measures_match_the_dyadic_ladder(f, depth, threshold):
    cyl = Cylinder(-2.0, 2.0, (0.0,) * f.spec.dimension, 1.0)
    chain = SimpleNamespace(ladder_depth=depth, middle_threshold=threshold)
    witness, measures = _witness_level(f, chain, Window(f.spec, cyl))
    expected = [
        level_set_measure(dyadic_ladder(f, k), cyl, lo=0.0, hi=1.0)
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
    cyl = Cylinder(-2.0, 2.0, (0.0,), 1.0)
    chain = SimpleNamespace(ladder_depth=depth, middle_threshold=0.0)
    _, measures = _witness_level(f, chain, Window(spec, cyl))
    expected = [level_set_measure(dyadic_ladder(f, k), cyl, lo=0.0, hi=1.0)
                for k in range(1, depth + 1)]
    assert measures == expected
    # Band k holds exactly one ulp above its lower edge and one below its
    # upper edge; the edges themselves belong to no band.
    two_cells = 2 * spec.cell_volume * (cyl.t_hi - cyl.t_lo)
    assert measures == [pytest.approx(two_cells, rel=1e-12)] * depth


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields())
def test_window_reductions_match_the_per_slice_loop(data, f):
    cyl = data.draw(cylinders(f.spec.dimension))
    try:
        win = Window(f.spec, cyl)
    except EmptyCylinderError:
        return
    values = f.values
    assert win.max(values) == max(float(values[i][win.mask].max()) for i in win.slices)
    assert win.min(values) == min(float(values[i][win.mask].min()) for i in win.slices)
    vol = f.spec.cell_volume
    expected = float(sum(win.weights[i] * values[i][win.mask].sum() * vol
                         for i in win.weighted_slices()))
    assert win.integral(values) == expected


@settings(max_examples=40, deadline=None)
@given(data=st.data(), f=fields(), whole_box=st.booleans())
def test_one_cell_oscillation_matches_the_per_slice_loop(data, f, whole_box):
    cyl = None if whole_box else data.draw(cylinders(f.spec.dimension))
    try:
        expected = _reference_one_cell(f, cyl)
    except EmptyCylinderError:
        return
    assert one_cell_oscillation(f, cyl) == expected


@settings(max_examples=40, deadline=None)
@given(f=fields(), level=st.integers(1, 6), p=st.floats(1.1, 2.5))
def test_truncated_energy_matches_the_per_slice_loop(f, level, p):
    spec = f.spec
    cyl = Cylinder(cutoff_time(level), 2.0, (0.0,) * spec.dimension, 1.0)
    win = Window(spec, cyl)
    trunc = np.maximum(f.values - cutoff_time(level), 0.0)
    vol = spec.cell_volume
    sup_term = max(float(trunc[i][win.mask].sum()) * vol for i in win.slices)
    grad_term = 0.0
    for i in win.weighted_slices():
        grad_term += win.weights[i] * _reference_gradient_norm_p(
            trunc[i], spec, p, win.mask
        )
    env = CoercivityEnvelope(lam=1.0, p=p)
    assert truncated_energy(f, level, env) == sup_term + grad_term
    i = int(win.slices[-1])
    assert discrete_gradient_norm_p(f, i, p) == _reference_gradient_norm_p(
        f.values[i], spec, p, None
    )
    assert discrete_gradient_norm_p(f, i, p, ball=cyl) == _reference_gradient_norm_p(
        f.values[i], spec, p, win.mask
    )


@pytest.mark.parametrize("whole_box", [True, False])
def test_one_cell_oscillation_sees_a_time_jump_between_blocks(whole_box):
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=64,
                    t_start=-2.0, t_end=2.0, dt=0.05)
    per_block = _BLOCK_CELLS // 64**2
    values = np.zeros((spec.n_slices, *spec.spatial_shape))
    values[per_block:] = 1.0
    f = field_from_values(spec, values)
    cyl = None if whole_box else Cylinder(-2.0, 2.0, (0.0, 0.0), 1.0)
    assert one_cell_oscillation(f, cyl) == 1.0
