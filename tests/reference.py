"""Whole-field oracles that the run path is compared against.

Each function here is a plain formula over a whole space-time field.  The
package computes the same quantities a block of slices at a time and keeps
only what its checks read; the tests compare the two with ``==``.
"""

import itertools

import numpy as np

from hjreg.grid import ScalarField


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
