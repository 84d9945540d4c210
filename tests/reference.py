"""Whole-field oracles that the run path is compared against.

Each function here is a plain formula over a whole space-time field.  The
package computes the same quantities a block of slices at a time and keeps
only what its checks read; the tests compare the two with ``==``.
"""

import csv
import itertools
from pathlib import Path

import numpy as np

from hjreg.grid import ScalarField, slice_blocks
from hjreg.oscillation import growth_envelope


def make_field(spec, initializer):
    """Sample ``initializer(t, x)`` at every slice time and cell center.

    The initializer receives the slice time as a float and the cell-center
    coordinates as an array of shape ``(*spatial_shape, dimension)``; it may
    return a broadcastable array or a scalar.  A NaN or infinite sample is
    a ``ValueError`` that names the first offending ``(t, x)``.
    """
    centers = spec.centers()
    out = np.empty((spec.n_slices, *spec.spatial_shape), dtype=np.float64)
    for i, t in enumerate(spec.times()):
        sample = np.asarray(initializer(float(t), centers), dtype=np.float64)
        out[i] = np.broadcast_to(sample, spec.spatial_shape)
        if not np.all(np.isfinite(out[i])):
            bad = np.argwhere(~np.isfinite(out[i]))[0]
            x_bad = centers[tuple(bad)]
            raise ValueError(
                f"initializer returned a non-finite value at t={t}, x={tuple(x_bad)}"
            )
    return ScalarField(spec=spec, values=out)


def gauge_shift(f, env, sign=1.0):
    """``f`` plus ``sign * lam * t`` on every slice, as a new field."""
    times = f.spec.times()[(...,) + (None,) * f.spec.dimension]
    return ScalarField(f.spec, f.values + (sign * env.lam) * times)


def residual(f, p, a, b):
    """``(u[i+1] - u[i]) / dt + a |grad u[i]|^p - b`` at every cell of every
    slice but the last, shape ``(n_slices - 1, *spatial_shape)``.

    The gradient is the solver's centered one ``(D+ + D-) / 2`` with
    outflow padding, so the one-sided difference missing at each box edge
    is 0; its components are squared and summed in axis order.
    """
    spec = f.spec
    u = f.values[:-1]
    sq = 0.0
    for axis in range(1, u.ndim):
        d = np.diff(u, axis=axis) / spec.cell_width
        edge = np.zeros_like(np.take(d, [0], axis=axis))
        comp = (np.concatenate([d, edge], axis=axis)
                + np.concatenate([edge, d], axis=axis)) * 0.5
        sq = sq + comp * comp
    dudt = (f.values[1:] - u) / spec.dt
    return dudt + a * np.sqrt(sq) ** p - b


def reflect(f):
    """The reflection ``v(t, x) = -f(-t, x)`` of a field on a time interval
    symmetric about 0, as a new field."""
    return ScalarField(f.spec, -f.values[::-1])


def window_max(f, win):
    """The largest value of ``f`` over the cells and slices of ``win``."""
    return float(f.values[win.slices][:, win.mask].max())


def window_min(f, win):
    """The smallest value of ``f`` over the cells and slices of ``win``."""
    return float(f.values[win.slices][:, win.mask].min())


def sup_abs(f):
    """The largest of ``|f|`` over every cell of every slice."""
    return float(np.abs(f.values).max())


def envelope_margin(f, chain):
    """The smallest of ``growth_envelope - |f|`` over every cell of every
    slice, the margin a zoom's input keeps under its envelope."""
    return float((growth_envelope(chain, f.spec) - np.abs(f.values)).min())


def measure(f, win, lo, hi, closed_upper=False, shift=0.0):
    """Cell-counting measure of ``{lo < f - shift < hi}`` (``<= hi`` when
    ``closed_upper``) in ``win``: each weighted slice's count times its
    weight and the cell volume, summed from 0 in slice order."""
    total = 0.0
    for i in win.weighted_slices():
        vals = f.values[i][win.mask] - shift
        inside = (vals > lo) & ((vals <= hi) if closed_upper else (vals < hi))
        total += win.weights[i] * f.spec.cell_volume * int(np.count_nonzero(inside))
    return total


def integral(f, win, above):
    """Time-weighted cell-counting integral of ``(f - above)_+`` over
    ``win``, summed from 0 in slice order."""
    total = 0.0
    for i in win.weighted_slices():
        excess = np.maximum(f.values[i][win.mask] - above, 0.0)
        total += win.weights[i] * excess.sum() * f.spec.cell_volume
    return float(total)


def gradient_norm_p(values, spec, p, mask=None):
    """Integral of ``|grad u|^p`` over one slice ``values``, or over the
    cells of ``mask``: forward differences per axis, the last one repeated
    at the upper box edge."""
    total = np.zeros_like(values)
    for axis in range(spec.dimension):
        d = np.diff(values, axis=axis) / spec.cell_width
        d = np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)
        total += d * d
    if mask is not None:
        total = total[mask]
    return float(np.sum(total ** (p / 2.0)) * spec.cell_volume)


def truncated_energy(f, level, p, win):
    """The level's truncated energy on ``win``, the window of ``[1 - 2^-level,
    2] x B(1)``: the largest slice integral of ``(f - c)_+`` plus the
    time-weighted ``|grad (f - c)_+|^p``, with ``c = 1 - 2^-level``."""
    trunc = np.maximum(f.values - (1.0 - 2.0**-level), 0.0)
    vol = f.spec.cell_volume
    sup_term = max(float(trunc[i][win.mask].sum()) * vol for i in win.slices)
    grad_term = 0.0
    for i in win.weighted_slices():
        grad_term += win.weights[i] * gradient_norm_p(trunc[i], f.spec, p, win.mask)
    return sup_term + grad_term


def one_cell_oscillation(f, win=None):
    """Largest single-cell jump of ``f`` in space or time, over the cells
    of the window ``win`` (the whole field without one), with each spatial
    neighbour pair gathered by flat index with ``np.take`` a block of
    slices at a time."""
    spec = f.spec
    if win is None:
        start, stop = 0, spec.n_slices
        mask = np.ones(spec.spatial_shape, dtype=bool)
    else:
        start, stop = int(win.slices[0]), int(win.slices[-1]) + 1
        mask = win.mask
    cells = np.flatnonzero(mask)
    # Flat indices of the neighbor pairs (lower, upper) inside the mask.
    index = np.arange(mask.size).reshape(mask.shape)
    axes = range(spec.dimension)
    lower = np.concatenate([np.delete(index, -1, axis=a).ravel() for a in axes])
    upper = np.concatenate([np.delete(index, 0, axis=a).ravel() for a in axes])
    both = mask.ravel()[lower] & mask.ravel()[upper]
    lower, upper = lower[both], upper[both]
    jump = 0.0
    for lo, hi in slice_blocks(start, stop, mask.size):
        # One slice of overlap with the next block for the time jumps.
        flat = f.rows(lo, min(hi + 1, stop)).reshape(-1, mask.size)
        rows = np.take(flat, cells, axis=1)
        if rows.shape[0] > 1:
            jump = max(jump, float(np.abs(np.diff(rows, axis=0)).max()))
        if lower.size:
            block = flat[:hi - lo]
            pairs = np.take(block, upper, axis=1) - np.take(block, lower, axis=1)
            jump = max(jump, float(np.abs(pairs).max()))
    return jump


def table(full, ball=None):
    """A whole-field residual reduced per slice, as a ``ResidualReport``
    table: each row's min and max over all cells and its max over the
    spatial mask ``ball`` (every cell without one)."""
    rows = full.reshape(len(full), -1)
    inside = rows if ball is None else full[:, ball]
    return np.stack([rows.min(axis=1), rows.max(axis=1), inside.max(axis=1)], axis=1)


def multilinear(grids, values, point):
    """Multilinear value of ``values`` on the tensor grid ``grids`` at one
    point, first clamped coordinate by coordinate to the grid's hull.

    Each coordinate falls in the cell ``[g[i], g[i + 1])`` (the last cell
    is closed), at weight ``w = (q - g[i]) / (g[i + 1] - g[i])``.  The
    corners are summed in ``itertools.product`` order over ``(i, 1 - w)``
    then ``(i + 1, w)`` per axis, each weight multiplied from 1 in axis
    order and the sum started from 0: the operand order of scipy's
    ``RegularGridInterpolator`` in its general linear path.
    """
    ends = []
    for g, q in zip(grids, point):
        q = min(max(q, g[0]), g[-1])
        i = 0
        while i < len(g) - 2 and g[i + 1] <= q:
            i += 1
        w = (q - g[i]) / (g[i + 1] - g[i])
        ends.append(((i, 1.0 - w), (i + 1, w)))
    total = 0.0
    for corner in itertools.product(*ends):
        weight = 1.0
        for _, w in corner:
            weight = weight * w
        total = total + values[tuple(i for i, _ in corner)] * weight
    return total


def sample(f, points, rate=0.0):
    """``f + rate * t`` at each ``(t, *x)`` row of ``points``, one point at
    a time over every slice of the field."""
    spec = f.spec
    times = spec.times()
    values = f.values + rate * times[(...,) + (None,) * spec.dimension]
    grids = [times] + [spec.axis_centers()] * spec.dimension
    return np.array([multilinear(grids, values, row) for row in points])


def snapshot_csv(f, base_path):
    """``grid.save_snapshot``'s CSV as ``csv.writer`` writes it, one row of
    17-digit ``t, x1, ..., xN, u`` strings per cell of every slice; returns
    the path of ``<base>.csv``."""
    spec = f.spec
    path = Path(base_path).with_suffix(".csv")
    header = ["t"] + [f"x{i + 1}" for i in range(spec.dimension)] + ["u"]
    centers = spec.centers().reshape(-1, spec.dimension)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(spec.times()):
            flat = f.values[i].reshape(-1)
            for coords, v in zip(centers, flat):
                writer.writerow(
                    [f"{t:.17g}"] + [f"{c:.17g}" for c in coords] + [f"{v:.17g}"]
                )
    return path
