"""Space-time lattice primitives.

Fields live on a cell-centered lattice over the box ``[-L, L]^N`` crossed
with a uniform time lattice ``t_i = t_start + i * dt``.  Values are stored
time-slice-major: ``values[i, j1, ..., jN]`` is the sample at time ``t_i``
and spatial cell ``(j1, ..., jN)`` whose center along each axis is
``-L + (j + 1/2) * cell_width``.

Set measures are cell-counting measures: a spatial cell contributes its full
volume ``cell_width**N`` when its center satisfies the predicate.  Along the
time axis each slice owns the interval ``[t_i - dt/2, t_i + dt/2]`` clipped
to ``[t_start, t_end]``; a slice contributes the overlap of that interval
with the requested time window.  With this weighting the measure of a full
cylinder is exact in time whenever the window endpoints lie on the lattice,
so the only discretization error left is the spatial ball boundary layer.
Every check selects its cells through one :class:`Window`.

Reductions along time run on blocks of consecutive slices, each a
``(slices, cells)`` array of about ``_BLOCK_CELLS`` cells; the block size is
set by the cell count, not the slice count, so one block stays cache-sized
at every resolution.  The batched reductions give the same bits as a loop
over slices: maxima and minima are exact in any order, a per-slice sum is a
row sum of a C-contiguous block (numpy sums each row as it sums the slice
on its own), and per-slice terms are accumulated in slice order with
``np.cumsum``, never with ``np.sum``, whose pairwise order would change
the last digits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GridSpec",
    "Cylinder",
    "ScalarField",
    "Window",
    "EmptyCylinderError",
    "ball_volume",
    "make_field",
    "field_from_values",
    "level_set_measure",
    "discrete_gradient_norm_p",
    "gradient_norm_p_rows",
    "in_slice_order",
    "per_slice",
    "slice_blocks",
    "one_cell_oscillation",
    "save_snapshot",
    "load_snapshot",
    "to_json",
]

_REL_TOL = 1e-6
# Absolute slack on time comparisons against a window: a slice belongs to
# ``[t_lo, t_hi]`` and a grid covers it up to this much lattice round-off.
_TIME_TOL = 1e-9
# Cells per block of slices in the batched reductions along time.
_BLOCK_CELLS = 1 << 17
# Attributes written under another JSON key.
_KEYS = {"lam": "lambda"}


def to_json(obj) -> dict:
    """The JSON object of a dataclass, one key per field (``lam`` under
    ``lambda``): tuples become lists, dicts are copied and nested
    dataclasses become their own objects."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dict):
            value = dict(value)
        out[_KEYS.get(f.name, f.name)] = value
    return out


class EmptyCylinderError(ValueError):
    """A cylinder selected no lattice cells at all.

    Distinct from a measure-zero result, which is a valid 0.0 return from a
    nonempty selection.
    """


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time lattice descriptor.

    Attributes:
        dimension: number of spatial dimensions N >= 1.
        half_width: spatial box half-width L; the box is ``[-L, L]^N``.
        cells_per_axis: spatial cells per axis (>= 4).
        t_start: first slice time.
        t_end: last slice time (> t_start).
        dt: time step; must divide ``t_end - t_start`` to within a 1e-6
            relative tolerance.

    The lattice must hold fewer than ``2**60`` values in all.
    """

    dimension: int
    half_width: float
    cells_per_axis: int
    t_start: float
    t_end: float
    dt: float

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.half_width <= 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.cells_per_axis < 4:
            raise ValueError(
                f"cells_per_axis must be >= 4, got {self.cells_per_axis}"
            )
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        span = self.t_end - self.t_start
        steps = span / self.dt
        if abs(steps - round(steps)) > _REL_TOL * max(1.0, steps):
            raise ValueError(
                f"dt={self.dt} does not divide the time span {span} "
                f"(fractional step count {steps})"
            )
        # numpy indexes bytes with int64, so 2**60 float64 values cannot exist
        if math.log2(self.n_slices) + self.dimension * math.log2(self.cells_per_axis) >= 60:
            raise ValueError(
                f"{self.n_slices} slices of {self.cells_per_axis}^{self.dimension} "
                "cells are too many values to allocate"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    @property
    def n_slices(self) -> int:
        return self.n_steps + 1

    @property
    def cell_width(self) -> float:
        return 2.0 * self.half_width / self.cells_per_axis

    @property
    def cell_volume(self) -> float:
        return self.cell_width**self.dimension

    def times(self) -> NDArray[np.float64]:
        return self.t_start + self.dt * np.arange(self.n_slices)

    def axis_centers(self) -> NDArray[np.float64]:
        h = self.cell_width
        return -self.half_width + h * (np.arange(self.cells_per_axis) + 0.5)

    def centers(self) -> NDArray[np.float64]:
        """Cell-center coordinates, shape ``(*spatial_shape, dimension)``."""
        axes = np.meshgrid(*([self.axis_centers()] * self.dimension), indexing="ij")
        return np.stack(axes, axis=-1)

    @property
    def spatial_shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dimension

    @property
    def residual_tol(self) -> float:
        """Default slack of one-sided residual checks: ``10 (cell width + dt)``."""
        return 10.0 * (self.cell_width + self.dt)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GridSpec":
        return cls(
            dimension=int(data["dimension"]),
            half_width=float(data["half_width"]),
            cells_per_axis=int(data["cells_per_axis"]),
            t_start=float(data["t_start"]),
            t_end=float(data["t_end"]),
            dt=float(data["dt"]),
        )


@dataclass(frozen=True)
class Cylinder:
    """Time window crossed with a spatial ball: ``[t_lo, t_hi] x B(center, radius)``."""

    t_lo: float
    t_hi: float
    center: tuple[float, ...]
    radius: float

    def __post_init__(self) -> None:
        if not self.t_hi > self.t_lo:
            raise ValueError(f"need t_hi > t_lo, got [{self.t_lo}, {self.t_hi}]")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def duration(self) -> float:
        return self.t_hi - self.t_lo


@dataclass(frozen=True)
class ScalarField:
    """Immutable scalar samples on a :class:`GridSpec` lattice."""

    spec: GridSpec
    values: NDArray[np.float64]

    def __post_init__(self) -> None:
        expected = (self.spec.n_slices, *self.spec.spatial_shape)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {expected}"
            )
        self.values.setflags(write=False)

    def with_values(self, values: NDArray[np.float64]) -> "ScalarField":
        return field_from_values(self.spec, values)


def ball_volume(dimension: int, radius: float) -> float:
    """Volume of the N-ball: ``pi^(N/2) r^N / Gamma(N/2 + 1)``."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    return math.pi ** (dimension / 2.0) * radius**dimension / math.gamma(dimension / 2.0 + 1.0)


def field_from_values(spec: GridSpec, values: NDArray[np.float64]) -> ScalarField:
    arr = np.array(values, dtype=np.float64, copy=True)
    return ScalarField(spec=spec, values=arr)


def make_field(
    spec: GridSpec,
    initializer: Callable[[float, NDArray[np.float64]], NDArray[np.float64] | float],
) -> ScalarField:
    """Sample ``initializer(t, x)`` at every slice time and cell center.

    The initializer receives the slice time as a float and the cell-center
    coordinates as an array of shape ``(*spatial_shape, dimension)``; it may
    return a broadcastable array or a scalar.

    Raises:
        ValueError: if any produced sample is NaN or infinite; the message
            names the first offending ``(t, x)``.
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


def _ball_mask(spec: GridSpec, cyl: Cylinder) -> NDArray[np.bool_]:
    if len(cyl.center) != spec.dimension:
        raise ValueError(
            f"cylinder center has {len(cyl.center)} coordinates, grid has "
            f"dimension {spec.dimension}"
        )
    centers = spec.centers()
    delta = centers - np.asarray(cyl.center)
    return np.einsum("...i,...i->...", delta, delta) < cyl.radius**2


class Window:
    """The lattice cells a cylinder owns on a grid.

    Attributes:
        spec: the grid.
        cylinder: the cylinder ``[t_lo, t_hi] x B(center, radius)``.
        slices: indices of the slices whose times lie in ``[t_lo, t_hi]``.
        weights: per-slice time weights, shape ``(n_slices,)``: the overlap
            of each slice's owned interval with ``[t_lo, t_hi]`` (see the
            module docstring); they sum to ``t_hi - t_lo`` when the grid
            spans the window.
        mask: spatial cells whose centers lie strictly inside the ball.

    Raises:
        EmptyCylinderError: when the cylinder holds no slice or no cell.
        ValueError: when the center's length differs from the dimension.
    """

    def __init__(self, spec: GridSpec, cylinder: Cylinder) -> None:
        self.spec = spec
        self.cylinder = cylinder
        times = spec.times()
        self.slices = np.nonzero(
            (times >= cylinder.t_lo - _TIME_TOL) & (times <= cylinder.t_hi + _TIME_TOL)
        )[0]
        half = 0.5 * spec.dt
        own_lo = np.maximum(times - half, spec.t_start)
        own_hi = np.minimum(times + half, spec.t_end)
        overlap = np.minimum(own_hi, cylinder.t_hi) - np.maximum(own_lo, cylinder.t_lo)
        self.weights = np.maximum(overlap, 0.0)
        self.mask = _ball_mask(spec, cylinder)
        if self.slices.size == 0 or not np.any(self.mask):
            raise EmptyCylinderError(
                f"cylinder [{cylinder.t_lo}, {cylinder.t_hi}] x "
                f"B({cylinder.center}, {cylinder.radius}) selects no lattice cells"
            )

    @staticmethod
    def require_cover(spec: GridSpec, cylinder: Cylinder) -> None:
        """The coverage rule for checks: the grid spans ``[t_lo, t_hi]`` and
        leaves at least two cells of padding between the ball and the box
        edge.  A ``ValueError`` names whichever part fails.
        """
        if (spec.t_start > cylinder.t_lo + _TIME_TOL
                or spec.t_end < cylinder.t_hi - _TIME_TOL):
            raise ValueError(
                f"grid time range [{spec.t_start}, {spec.t_end}] does not cover "
                f"[{cylinder.t_lo}, {cylinder.t_hi}]"
            )
        reach = max(abs(c) for c in cylinder.center) + cylinder.radius
        if spec.half_width < reach + 2.0 * spec.cell_width:
            raise ValueError(
                f"box half-width {spec.half_width} leaves less than two cells of "
                f"padding around the radius-{cylinder.radius} ball"
            )

    def weighted_slices(self) -> NDArray[np.intp]:
        """Indices of the slices with a positive time weight."""
        return np.nonzero(self.weights > 0.0)[0]

    def blocks(self, weighted: bool = False) -> Iterator[tuple[int, int]]:
        """``(lo, hi)`` ranges of about ``_BLOCK_CELLS`` cells covering the
        window's :attr:`slices`, or its :meth:`weighted_slices` when
        ``weighted``; both are runs of consecutive slices."""
        index = self.weighted_slices() if weighted else self.slices
        if index.size:
            yield from slice_blocks(int(index[0]), int(index[-1]) + 1, self.mask.size)

    def rows(
        self, values: NDArray[np.float64], weighted: bool = False
    ) -> Iterator[NDArray[np.float64]]:
        """The ball's cells of ``values`` (one entry per slice and cell) over
        each of :meth:`blocks`, as C-contiguous ``(slices, cells)`` arrays."""
        flat = values.reshape(values.shape[0], -1)
        cells = np.flatnonzero(self.mask)
        for lo, hi in self.blocks(weighted):
            yield np.take(flat[lo:hi], cells, axis=1)

    def max(self, values: NDArray[np.float64]) -> float:
        """Largest of ``values`` (one entry per slice and cell) in the window."""
        return max(float(block.max()) for block in self.rows(values))

    def min(self, values: NDArray[np.float64]) -> float:
        """Smallest of ``values`` (one entry per slice and cell) in the window."""
        return min(float(block.min()) for block in self.rows(values))

    def integral(self, values: NDArray[np.float64]) -> float:
        """Time-weighted cell-counting integral of ``values`` over the cylinder."""
        sums = per_slice([b.sum(axis=1) for b in self.rows(values, weighted=True)])
        weights = self.weights[self.weighted_slices()]
        return in_slice_order((weights * sums) * self.spec.cell_volume)

    def measure(self, counts: list[NDArray[np.intp]]) -> float:
        """Cell-counting measure from per-slice cell counts, one array per
        block of ``rows(..., weighted=True)``."""
        weights = self.weights[self.weighted_slices()]
        return in_slice_order((weights * self.spec.cell_volume) * per_slice(counts))


def slice_blocks(start: int, stop: int, cells: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges covering ``[start, stop)``, each about
    ``_BLOCK_CELLS`` cells for slices of ``cells`` cells."""
    step = max(1, _BLOCK_CELLS // cells)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def per_slice(parts: list[NDArray]) -> NDArray:
    """Per-slice results of consecutive blocks, joined in slice order."""
    return np.concatenate(parts) if parts else np.zeros(0)


def in_slice_order(terms: NDArray[np.float64]) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, accumulated left to right."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def level_set_measure(
    f: ScalarField,
    cyl: Cylinder,
    lo: float = -math.inf,
    hi: float = math.inf,
    closed_upper: bool = False,
) -> float:
    """Cell-counting measure of ``{lo < f < hi}`` (or ``< f <= hi``) in a cylinder.

    Bounds are strict; ``closed_upper=True`` switches the upper predicate to
    ``f <= hi``, so ``{f <= c}`` is expressed as ``(-inf, c]`` and point
    levels ``{f == c}`` as a closed/open difference.

    Returns 0.0 when the selection is nonempty but no cell satisfies the
    predicate; raises :class:`EmptyCylinderError` when the cylinder selects
    no cells at all.
    """
    win = Window(f.spec, cyl)
    counts = [
        np.count_nonzero(
            (vals > lo) & ((vals <= hi) if closed_upper else (vals < hi)), axis=1
        )
        for vals in win.rows(f.values, weighted=True)
    ]
    return win.measure(counts)


def discrete_gradient_norm_p(
    f: ScalarField,
    slice_index: int,
    p: float,
    ball: Cylinder | None = None,
) -> float:
    """Integral of ``|grad f|^p`` over one time slice.

    Gradients are forward differences per axis, one-sided (backward) at the
    upper box edge.  Integration is over the whole box by default, or over
    the spatial ball of ``ball`` when given (its time window is ignored).
    """
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    cells = None
    if ball is not None:
        mask = _ball_mask(f.spec, ball)
        if not np.any(mask):
            raise EmptyCylinderError(
                f"ball B({ball.center}, {ball.radius}) selects no cells"
            )
        cells = np.flatnonzero(mask)
    return float(gradient_norm_p_rows(f.values[slice_index][None], f.spec, p, cells)[0])


def gradient_norm_p_rows(
    values: NDArray[np.float64],
    spec: GridSpec,
    p: float,
    cells: NDArray[np.intp] | None = None,
) -> NDArray[np.float64]:
    """:func:`discrete_gradient_norm_p` of every slice of a block of slices
    (shape ``(slices, *spatial_shape)``), over the flat cell indices
    ``cells`` or the whole box."""
    h = spec.cell_width
    grad_sq = np.zeros_like(values)
    for axis in range(1, spec.dimension + 1):
        d = np.diff(values, axis=axis)
        d /= h
        d = np.concatenate([d, np.take(d, [-1], axis=axis)], axis=axis)
        d *= d
        grad_sq += d
        del d  # keeps at most three block-sized arrays alive
    grad_sq = grad_sq.reshape(values.shape[0], -1)
    if cells is not None:
        grad_sq = np.take(grad_sq, cells, axis=1)
    grad_sq **= p / 2.0
    return grad_sq.sum(axis=1) * spec.cell_volume


def one_cell_oscillation(f: ScalarField, cyl: Cylinder | None = None) -> float:
    """Largest single-cell jump of the field (space or time axis).

    This is the natural resolution floor for sup-norm conclusions: a bound
    checked at cell centers can be off by at most one neighbor jump.  With
    a cylinder, only jumps between two cells of its window count.
    """
    spec = f.spec
    if cyl is None:
        start, stop = 0, spec.n_slices
        mask = np.ones(spec.spatial_shape, dtype=bool)
    else:
        win = Window(spec, cyl)
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
    flat = f.values.reshape(spec.n_slices, -1)
    jump = 0.0
    for lo, hi in slice_blocks(start, stop, mask.size):
        # One slice of overlap with the next block for the time jumps.
        rows = np.take(flat[lo:min(hi + 1, stop)], cells, axis=1)
        if rows.shape[0] > 1:
            jump = max(jump, float(np.abs(np.diff(rows, axis=0)).max()))
        if lower.size:
            block = flat[lo:hi]
            pairs = np.take(block, upper, axis=1) - np.take(block, lower, axis=1)
            jump = max(jump, float(np.abs(pairs).max()))
    return jump


def save_snapshot(f: ScalarField, base_path: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.csv`` (rows ``t,x1,...,xN,u``) plus ``<base>.json`` descriptor.

    Values are printed with 17 significant digits so float64 samples
    round-trip exactly; the JSON descriptor round-trips the grid bit-exactly.
    """
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    spec = f.spec
    header = ["t"] + [f"x{i + 1}" for i in range(spec.dimension)] + ["u"]
    centers = spec.centers().reshape(-1, spec.dimension)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, t in enumerate(spec.times()):
            flat = f.values[i].reshape(-1)
            for coords, v in zip(centers, flat):
                writer.writerow(
                    [f"{t:.17g}"] + [f"{c:.17g}" for c in coords] + [f"{v:.17g}"]
                )
    with open(json_path, "w") as fh:
        json.dump(to_json(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def load_snapshot(base_path: str | Path) -> ScalarField:
    """Inverse of :func:`save_snapshot`.

    Every row's ``t`` and ``x`` columns must equal the grid's slice time and
    cell center in :func:`save_snapshot`'s row order; the 17-digit columns
    make that an exact comparison.

    Raises:
        ValueError: on a bad header, a wrong row count, or the first row
            whose coordinates differ from the grid's.
    """
    base = Path(base_path)
    with open(base.with_suffix(".json")) as fh:
        spec = GridSpec.from_json_dict(json.load(fh))
    with open(base.with_suffix(".csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "t" or header[-1] != "u" or len(header) != spec.dimension + 2:
            raise ValueError(f"unexpected snapshot header {header}")
        rows = [[float(v) for v in row] for row in reader]
    centers = spec.centers().reshape(-1, spec.dimension)
    expected_rows = spec.n_slices * len(centers)
    if len(rows) != expected_rows:
        raise ValueError(f"snapshot has {len(rows)} rows, grid expects {expected_rows}")
    data = np.array(rows, dtype=np.float64)
    coords = np.column_stack(
        [np.repeat(spec.times(), len(centers)), np.tile(centers, (spec.n_slices, 1))]
    )
    mismatch = np.nonzero(np.any(data[:, :-1] != coords, axis=1))[0]
    if mismatch.size:
        n = int(mismatch[0])
        raise ValueError(
            f"snapshot row {n + 1} has coordinates {data[n, :-1].tolist()}, "
            f"grid expects {coords[n].tolist()}"
        )
    return ScalarField(
        spec=spec, values=data[:, -1].reshape(spec.n_slices, *spec.spatial_shape)
    )
