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

A :class:`Cylinder` ``[t_lo, t_hi] x B(0, radius)`` is centred at the
origin.  A :class:`Window` is the one way to select its cells on a grid:
every reader of a region takes the window its caller holds, and
:meth:`Window.slice_range` is the one rule for which slices a time
interval selects.

Reductions along time run on blocks of consecutive slices, each a
``(slices, cells)`` array of about ``_BLOCK_CELLS`` cells; the block size is
set by the cell count, not the slice count, so one block stays cache-sized
at every resolution.  A :class:`SliceScan` hands the blocks, in slice
order, to readers such as :class:`SliceTables`, either as a march computes
the slices or from a whole field; the checks read the per-slice tables.
The batched reductions give the same bits as a loop over slices: maxima
and minima are exact in any order, a per-slice sum is a row sum of a
C-contiguous block (numpy sums each row as it sums the slice on its own),
and per-slice terms are accumulated in slice order with ``np.cumsum``,
never with ``np.sum``, whose pairwise order would change the last digits.

JSON crosses the package boundary through the functions here, because a
grid is the first thing both a config and a snapshot hold: :func:`to_json`
is the one encoder (a dataclass one key per field, a non-finite float as
``null``), :func:`write_json` the one writer of JSON text, and
:func:`from_json` reads a dataclass back by its field annotations, raising
a :class:`ConfigError` that names the key on any misfit.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache, lru_cache
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ConfigError",
    "GridSpec",
    "Cylinder",
    "ScalarField",
    "Window",
    "EmptyCylinderError",
    "ball_mask",
    "ball_volume",
    "field_from_values",
    "level_set_measure",
    "discrete_gradient_norm_p",
    "gradient_norm_p_rows",
    "in_slice_order",
    "slice_blocks",
    "SliceRead",
    "SliceScan",
    "SliceTables",
    "ShiftedDifference",
    "axis_strides",
    "one_cell_oscillation",
    "save_snapshot",
    "config_errors",
    "from_json",
    "to_json",
    "write_json",
]

_REL_TOL = 1e-6
# Absolute slack on time comparisons against a window: a slice belongs to
# ``[t_lo, t_hi]`` and a grid covers it up to this much lattice round-off.
_TIME_TOL = 1e-9
# Cells per block of slices in the batched reductions along time.
_BLOCK_CELLS = 1 << 17
# Snapshot rows formatted per write: the text in flight stays small.
_CSV_ROWS = 1 << 12
# Attributes written and read under another JSON key.
_KEYS = {"lam": "lambda"}


def to_json(obj):
    """The JSON value of ``obj``, the one encoder of every JSON output.

    A dataclass becomes an object with one key per field (``lam`` under
    ``lambda``); dicts (their keys as strings), lists and tuples are walked
    item by item; numpy bools, integers and floats become Python ones, and
    a non-finite float becomes ``None``, which JSON writes as ``null``.
    """
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if is_dataclass(obj):
        return {_KEYS.get(f.name, f.name): to_json(getattr(obj, f.name))
                for f in fields(obj)}
    return obj


def write_json(obj, fh) -> None:
    """Write :func:`to_json` of ``obj`` to the text stream ``fh``: two-space
    indent, sorted keys and a final newline."""
    text = json.dumps(to_json(obj), indent=2, sort_keys=True, allow_nan=False)
    fh.write(text + "\n")


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@contextmanager
def config_errors(where: str):
    """Report a value that fails to coerce or validate as a ``ConfigError``."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"{where}: {err}") from None


# Resolved field annotations per dataclass.
_hints = cache(typing.get_type_hints)


def _coerce(value, hint, key: str, where: str):
    """``value`` read as the annotation ``hint`` of the field at ``key``.

    ``int`` must be integral, ``float`` finite, ``X | None`` also takes
    ``null``, ``tuple[X, ...]`` a JSON array, ``dict`` a JSON object, and a
    dataclass its own object; booleans are not numbers.
    """
    if typing.get_origin(hint) is types.UnionType:
        if value is None:
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return from_json(hint, value, key if where == "config" else f"{where}.{key}")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"{key} must be a JSON array, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(
            _coerce(v, item, f"{key}[{i}]", where) for i, v in enumerate(value)
        )
    if hint is dict:
        if not isinstance(value, dict):
            raise TypeError(f"{key} must be a JSON object, got {type(value).__name__}")
        return dict(value)
    if hint is str:
        if not isinstance(value, str):
            raise TypeError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    if hint is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return float(value)


def from_json(cls, data, where: str, **given):
    """The dataclass ``cls`` read from its JSON object ``data``; the
    inverse of :func:`to_json`.

    Unknown keys are rejected by name, fields without a default are
    required, and the rest fall back to the dataclass defaults; each value
    is read by its annotation (see ``_coerce``).  ``given`` holds fields the
    caller has built already: their keys are accepted but not read.  Every
    failure is a ``ConfigError`` that names ``where``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(data).__name__}")
    hints = _hints(cls)
    by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
    for key in data:
        if key not in by_key:
            raise ConfigError(f"unknown key {key!r} in {where}")
    kwargs = dict(given)
    with config_errors(where):
        for key, f in by_key.items():
            if f.name in given:
                continue
            if key in data:
                kwargs[f.name] = _coerce(data[key], hints[f.name], key, where)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} needs {key!r}")
        return cls(**kwargs)


class EmptyCylinderError(ValueError):
    """A cylinder selected no lattice cells at all: its time interval holds
    no slice, or its ball no cell center.  Only :class:`Window` raises it.

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
        dt: time step; must divide ``t_end - t_start`` into at least one
            step, to within a 1e-6 relative tolerance.

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
        if round(steps) < 1:
            raise ValueError(f"dt={self.dt} leaves no step in the time span {span}")
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


@dataclass(frozen=True)
class Cylinder:
    """Time window crossed with a ball about the origin,
    ``[t_lo, t_hi] x B(0, radius)``, on a grid of any dimension; a base
    point moves to the origin by ``rescale.base_point_window``'s map."""

    t_lo: float
    t_hi: float
    radius: float

    def __post_init__(self) -> None:
        if not self.t_hi > self.t_lo:
            raise ValueError(f"need t_hi > t_lo, got [{self.t_lo}, {self.t_hi}]")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class ScalarField:
    """Immutable scalar samples on a :class:`GridSpec` lattice.

    With ``kept`` None every slice is held and ``values[i]`` is slice ``i``;
    otherwise ``values[k]`` is slice ``kept[k]``, ``kept`` is strictly
    increasing, and a read of a slice that was not kept raises instead of
    returning data.  A batched march's field keeps its members' slices as
    the march computed them, with a member axis after the slice axis:
    ``values[k, m]`` is member ``m``'s slice; :meth:`member` is one
    member's field, and only such a field is read by slices.
    """

    spec: GridSpec
    values: NDArray[np.float64]
    kept: NDArray[np.intp] | None = None

    def __post_init__(self) -> None:
        held = self.spec.n_slices if self.kept is None else len(self.kept)
        shape, lone = self.values.shape, (held, *self.spec.spatial_shape)
        # a batch's shape is the lone one with the member axis second
        if shape != lone and shape[:1] + shape[2:] != lone:
            raise ValueError(
                f"values shape {self.values.shape} does not hold {held} "
                f"slices of {self.spec.spatial_shape}"
            )
        self.values.setflags(write=False)

    def member(self, m: int) -> ScalarField:
        """Member ``m``'s field of a batch's."""
        return ScalarField(self.spec, self.values[:, m], self.kept)

    def rows(self, lo: int, hi: int) -> NDArray[np.float64]:
        """Slices ``lo:hi``, a view of :attr:`values`; ``IndexError`` unless
        every one of them is held."""
        kept = self.kept
        k = lo if kept is None else int(np.searchsorted(kept, lo))
        last = k + hi - lo - 1
        if not (0 <= lo <= hi and last < len(self.values) and (
                kept is None or hi == lo
                or kept[k] == lo and kept[last] == hi - 1)):
            raise IndexError(f"slices {lo}:{hi} were not all kept")
        return self.values[k:k + hi - lo]


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


@lru_cache(maxsize=32)
def ball_mask(spec: GridSpec, radius: float) -> NDArray[np.bool_]:
    """The cells of ``spec`` whose centers lie strictly inside ``B(0,
    radius)``, as a read-only mask shared by every reader of the ball."""
    centers = spec.centers()
    mask = np.einsum("...i,...i->...", centers, centers) < radius**2
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=32)
def _window_geometry(spec: GridSpec, cylinder: Cylinder) -> tuple[
    NDArray[np.intp], NDArray[np.float64], NDArray[np.bool_]
]:
    """A :class:`Window`'s ``slices``, ``weights`` and ``mask``, built once
    per grid and cylinder and shared read-only by every window of the pair."""
    times = spec.times()
    inside = Window.slice_range(spec, cylinder.t_lo, cylinder.t_hi)
    slices = np.arange(inside.start, inside.stop)
    half = 0.5 * spec.dt
    own_lo = np.maximum(times - half, spec.t_start)
    own_hi = np.minimum(times + half, spec.t_end)
    overlap = np.minimum(own_hi, cylinder.t_hi) - np.maximum(own_lo, cylinder.t_lo)
    weights = np.maximum(overlap, 0.0)
    for arr in (slices, weights):
        arr.flags.writeable = False
    return slices, weights, ball_mask(spec, cylinder.radius)


class Window:
    """The lattice cells a cylinder owns on a grid: the one way a reader
    selects a space-time region.

    Attributes:
        spec: the grid.
        slices: indices of the slices whose times lie in the cylinder's
            ``[t_lo, t_hi]``, its :meth:`slice_range`.
        weights: per-slice time weights, shape ``(n_slices,)``: the overlap
            of each slice's owned interval with ``[t_lo, t_hi]`` (see the
            module docstring); they sum to ``t_hi - t_lo`` when the grid
            spans the window.
        mask: spatial cells whose centers lie strictly inside the ball.
        radius: the ball's radius, which names its cells to a
            :class:`SliceRead`.

    The three arrays are read-only: every window of one grid and cylinder
    shares them (see ``_window_geometry``).  A window reads no field: its
    extrema, measures, integrals and jumps are :class:`SliceTables`'.

    Raises:
        EmptyCylinderError: when the cylinder holds no slice or no cell;
            no other code raises it.
    """

    def __init__(self, spec: GridSpec, cylinder: Cylinder) -> None:
        self.spec, self.radius = spec, cylinder.radius
        self.slices, self.weights, self.mask = _window_geometry(spec, cylinder)
        if self.slices.size == 0 or not np.any(self.mask):
            raise EmptyCylinderError(
                f"cylinder [{cylinder.t_lo}, {cylinder.t_hi}] x "
                f"B(0, {cylinder.radius}) selects no lattice cells"
            )

    @classmethod
    def covering(cls, spec: GridSpec, cylinder: Cylinder) -> Window:
        """The window of a cylinder the grid must cover: :meth:`require_cover`
        runs first, so a grid that breaks the rule raises its ``ValueError``
        before any :class:`EmptyCylinderError`."""
        cls.require_cover(spec, cylinder)
        return cls(spec, cylinder)

    @staticmethod
    def slice_range(spec: GridSpec, t_lo: float, t_hi: float, pad: int = 0) -> range:
        """Indices of the slices whose times lie in ``[t_lo, t_hi]``, widened
        by ``pad`` slices on each side and clipped to the grid: the one rule
        for which slices a time interval selects.  With ``pad > 0`` the
        range is not empty even when no slice time falls inside: it holds
        the ``pad`` slices on each side of the interval."""
        times = spec.times()
        lo = int(np.searchsorted(times, t_lo - _TIME_TOL, "left"))
        hi = int(np.searchsorted(times, t_hi + _TIME_TOL, "right"))
        return range(max(lo - pad, 0), min(hi + pad, spec.n_slices))

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
        if spec.half_width < cylinder.radius + 2.0 * spec.cell_width:
            raise ValueError(
                f"box half-width {spec.half_width} leaves less than two cells of "
                f"padding around the radius-{cylinder.radius} ball"
            )

    def weighted_slices(self) -> NDArray[np.intp]:
        """Indices of the slices with a positive time weight."""
        return np.nonzero(self.weights > 0.0)[0]

    def measure(self, counts: NDArray) -> float:
        """Cell-counting measure from the cell counts of the
        :meth:`weighted_slices`, one per slice in their order."""
        weights = self.weights[self.weighted_slices()]
        return in_slice_order((weights * self.spec.cell_volume) * counts)

    @property
    def volume(self) -> float:
        """Cell-counting measure of the whole cylinder: :meth:`measure` with
        every cell of :attr:`mask` counted on each weighted slice."""
        n_slices = self.weighted_slices().size
        return self.measure(np.full(n_slices, np.count_nonzero(self.mask)))


def slice_blocks(start: int, stop: int, cells: int) -> Iterator[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` ranges covering ``[start, stop)``, each about
    ``_BLOCK_CELLS`` cells for slices of ``cells`` cells."""
    step = max(1, _BLOCK_CELLS // cells)
    for lo in range(start, stop, step):
        yield lo, min(lo + step, stop)


def in_slice_order(terms: NDArray[np.float64]) -> float:
    """``0.0 + terms[0] + terms[1] + ...``, accumulated left to right."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def level_set_measure(
    f: ScalarField,
    win: Window,
    lo: float = -math.inf,
    hi: float = math.inf,
    closed_upper: bool = False,
) -> float:
    """Cell-counting measure of ``{lo < f < hi}`` (or ``< f <= hi``) in the
    window ``win`` of ``f``'s grid.

    Bounds are strict; ``closed_upper=True`` switches the upper predicate to
    ``f <= hi``, so ``{f <= c}`` is expressed as ``(-inf, c]`` and point
    levels ``{f == c}`` as a closed/open difference.  Reads the cells of
    ``win.mask`` on the slices of positive weight, through ``f.rows``, as
    :meth:`SliceTables.measure` of their counts.

    Returns 0.0 when no cell of the window satisfies the predicate.
    """
    read = SliceRead("count", win.radius, (0.0, lo, hi, closed_upper))
    weighted = win.weighted_slices()
    tables = SliceTables.of(f, [read], int(weighted.min(initial=0)),
                            int(weighted.max(initial=-1)) + 1)
    return tables.measure(win, lo, hi, closed_upper)


def discrete_gradient_norm_p(
    f: ScalarField,
    slice_index: int,
    p: float,
    ball: Window | None = None,
) -> float:
    """Integral of ``|grad f|^p`` over one time slice.

    Gradients are forward differences per axis, one-sided (backward) at the
    upper box edge.  Reads slice ``slice_index`` of ``f.values`` and
    integrates over the whole box, or over the cells of ``ball.mask`` when
    a window is given (its slices are not read).
    """
    if p <= 0.0:
        raise ValueError(f"p must be positive, got {p}")
    cells = None if ball is None else np.flatnonzero(ball.mask)
    return float(gradient_norm_p_rows(f.values[slice_index][None], f.spec, p, cells)[0])


def gradient_norm_p_rows(
    values: NDArray[np.float64],
    spec: GridSpec,
    p: float,
    cells: NDArray[np.intp] | None = None,
) -> NDArray[np.float64]:
    """:func:`discrete_gradient_norm_p` of every slice of a block of slices
    (shape ``(slices, *spatial_shape)``), over the flat cell indices
    ``cells`` or the whole box.  Each axis's differences are one
    :class:`ShiftedDifference` subtraction, with the entry at the upper
    edge copied from the one before it (the one-sided difference there)."""
    n, flat = spec.cells_per_axis, values.reshape(-1)
    grad_sq, d = np.empty(values.size), np.empty(values.size)
    for axis, stride in enumerate(axis_strides(spec)):
        along = ShiftedDifference(stride, n, d)
        np.subtract(flat[stride:], flat[:-stride], out=along.head)
        lanes = d.reshape(-1, n, stride)
        lanes[:, -1] = lanes[:, -2]
        d /= spec.cell_width
        if axis == 0:
            np.multiply(d, d, out=grad_sq)
        else:
            d *= d
            grad_sq += d
    del d  # not alive through the gather
    grad_sq = grad_sq.reshape(values.shape[0], -1)
    if cells is not None:
        grad_sq = np.take(grad_sq, cells, axis=1)
    grad_sq **= p / 2.0
    return grad_sq.sum(axis=1) * spec.cell_volume


class ShiftedDifference:
    """Forward differences along one axis of a raveled C-contiguous block,
    written to ``buf[pad:]`` as one contiguous slice subtraction.

    The axis has element stride ``stride`` and ``length`` entries, so
    ``flat[j + stride] - flat[j]`` over the whole block is
    ``flat[stride:] - flat[:-stride]``.  The entries whose index along the
    axis is the last one, which would hold a difference across a row or
    slice boundary or past the end, are set to 0.0 through one strided
    view, :attr:`edges`.  When ``buf[:pad]`` holds zeros and
    ``stride <= pad``, :attr:`prev`, the same buffer read ``stride``
    entries earlier, is the backward difference, exactly 0.0 at each lower
    edge.  The views are built once, so a call costs one subtraction and
    one fill.
    """

    def __init__(self, stride: int, length: int, buf: NDArray[np.float64],
                 pad: int = 0) -> None:
        self.stride = stride
        self.fwd = buf[pad:]
        self.head = buf[pad:buf.size - stride]
        self.edges = self.fwd.reshape(-1, length, stride)[:, -1]
        self.prev = buf[pad - stride:buf.size - stride] if stride <= pad else None

    def __call__(self, flat: NDArray[np.float64]) -> NDArray[np.float64]:
        """The differences of ``flat``, a block of ``buf.size - pad``
        entries, as the view :attr:`fwd`."""
        np.subtract(flat[self.stride:], flat[:-self.stride], out=self.head)
        self.edges.fill(0.0)
        return self.fwd


def axis_strides(spec: GridSpec) -> list[int]:
    """Element stride of each spatial axis in a C-contiguous slice."""
    n, dim = spec.cells_per_axis, spec.dimension
    return [n ** (dim - 1 - axis) for axis in range(dim)]


def one_cell_oscillation(f: ScalarField, win: Window | None = None) -> float:
    """Largest single-cell jump of the field (space or time axis).

    This is the natural resolution floor for sup-norm conclusions: a bound
    checked at cell centers can be off by at most one neighbor jump.  With
    a window of ``f``'s grid, only jumps between two of its cells count:
    the slices from its first to its last, and the pairs whose two cells
    lie in its mask; without one, every slice and cell.  It is
    :meth:`SliceTables.one_cell` of the slices it reads.
    """
    if win is None:
        return SliceTables.of(f, [SliceRead("jumps", None)]).one_cell()
    read = SliceRead("jumps", win.radius)
    return SliceTables.of(f, [read], int(win.slices[0]), int(win.slices[-1]) + 1).one_cell(win)


class SliceRead(NamedTuple):
    """One per-slice reduction that :class:`SliceTables` takes of a field.

    ``radius`` picks the cells: the ball ``B(0, radius)`` of a
    :class:`Window` of that radius, or the whole box for ``None``; with
    ``negated`` the reduction reads ``-f``.  The kinds and their ``arg``:

    - ``"max"``, ``"min"``: the largest and the smallest value;
    - ``"count"``, ``(shift, lo, hi, closed_upper)``: the cells with ``lo <
      f - shift < hi`` (``<= hi`` when ``closed_upper``); a zero shift is
      not subtracted;
    - ``"excess"``, ``(c,)``: the row sum of ``(f - c)_+``;
    - ``"gradient"``, ``(c, p)``: :func:`gradient_norm_p_rows` of ``(f -
      c)_+`` over the ball;
    - ``"plus_min"``, ``(fn, *args)``: the smallest of ``f + fn(*args,
      spec)``, an array of the spatial shape;
    - ``"jumps"``: the largest one-cell jump inside the slice and the one
      to the next slice (see :meth:`SliceTables.one_cell`); the jumps of
      ``-f`` are those of ``f``, so this kind is never negated.

    A read fills its table from slice ``first`` on; the entries before it
    stay 0.  Entries that a block's range decides are written unread: a
    count is 0 when no row's shifted ``[min, max]`` meets the band and the
    row's cell count when each lies inside it; an excess or gradient is
    ``0.0`` when no row of the box exceeds ``c`` (of ``-f`` when negated).
    """

    kind: str
    radius: float | None = 1.0
    arg: tuple = ()
    negated: bool = False
    first: int = 0


class _Block:
    """One block's slices ``own``, ``(members, slices, cells)``, as
    :meth:`SliceTables.take` reads them: the gathered cells of one ball and
    sign at a time, and each row's range per ball and sign, taken once."""

    def __init__(self, spec: GridSpec, own: NDArray[np.float64]) -> None:
        self.spec, self.own, self.ranges, self.key, self.gathered = spec, own, {}, None, None

    def cells(self, radius, negated: bool) -> NDArray[np.float64]:
        """Each row's cells of ``B(0, radius)`` (the box for ``None``), of ``-f`` if negated."""
        if (radius, negated) == (None, False):
            return self.own
        if self.key != (radius, negated):
            self.key, self.gathered = (radius, negated), None
            rows = self.own if radius is None else np.take(
                self.own, np.flatnonzero(ball_mask(self.spec, radius)), axis=-1)
            self.gathered = np.negative(rows) if negated else rows
        return self.gathered

    def extent(self, radius, negated: bool) -> tuple[NDArray, NDArray]:
        """Each row's ``(max, min)`` over :meth:`cells`."""
        if (radius, negated) not in self.ranges:
            rows = self.cells(radius, negated)
            self.ranges[radius, negated] = (rows.max(axis=-1, initial=-np.inf),
                                            rows.min(axis=-1, initial=np.inf))
        return self.ranges[radius, negated]


class SliceTables:
    """The per-slice tables of ``reads``, one entry per slice of a field
    (``jumps``: its space and time columns), and the window reductions a
    check takes of them.

    A block of slices reaches :meth:`take` through a :class:`SliceScan`:
    from the march as it runs, or from a field at once (see :meth:`of`).
    Every reduction gives the bits of a loop over the window's slices (see
    the module docstring).

    :meth:`reflection` reads the same tables as the field's reflection
    ``v(t, x) = -f(-t, x)`` on a time interval symmetric about 0: slice
    ``i`` of ``v`` is slice ``n_slices - 1 - i`` of the negated reads.

    The tables of a batched march's ``members`` fill together, one row per
    member, from each block of every member's slices; :meth:`member` reads
    one member's rows, and the reductions read member 0's by default.
    """

    def __init__(self, spec: GridSpec, reads, members: int = 1) -> None:
        self.spec, self.members = spec, members
        # the reads of one ball and sign next to each other, so that a block
        # holds one gathered copy of the ball's cells at a time
        self.tables = {read: self._empty(read) for read in sorted(
            dict.fromkeys(reads),
            key=lambda read: (read.radius is None, read.radius or 0.0, read.negated))}
        self.addends = {read: read.arg[0](*read.arg[1:], spec).reshape(-1)
                        for read in self.tables if read.kind == "plus_min"}
        self.reflected = False
        self.row = 0

    def _empty(self, read: SliceRead) -> NDArray:
        """A zeroed table for ``read``, one row per member: counts in the
        smallest unsigned type that holds the ball's cells, ``jumps`` in two
        columns."""
        spec = self.spec
        rows = (self.members, spec.n_slices)
        if read.kind == "count":
            cells = (math.prod(spec.spatial_shape) if read.radius is None
                     else np.count_nonzero(ball_mask(spec, read.radius)))
            return np.zeros(rows, dtype=np.min_scalar_type(cells))
        return np.zeros((*rows, 2) if read.kind == "jumps" else rows)

    @classmethod
    def of(cls, f, reads, start: int = 0, stop: int | None = None) -> SliceTables:
        """The tables of ``reads`` of the slices ``start:stop`` of ``f``
        (every slice by default), read through ``f.rows``."""
        tables = cls(f.spec, reads)
        SliceScan(f.spec, [tables]).read(f, start, stop)
        return tables

    def reflection(self) -> SliceTables:
        """These tables read as the field's reflection; reflecting twice
        reads the field."""
        out = copy.copy(self)
        out.reflected = not self.reflected
        return out

    def member(self, m: int) -> SliceTables:
        """These tables read as member ``m``'s."""
        out = copy.copy(self)
        out.row = m
        return out

    def take(self, lo: int, hi: int, slab: NDArray[np.float64]) -> None:
        """Fill the entries ``lo:hi`` of every table row from ``slab``, the
        C-contiguous ``(members, slices, cells)`` block of each member's
        slices ``lo..hi-1`` and of slice ``hi`` when the field has it; each
        member's slices reduce into its own row.  The ``jumps`` reads go
        first, in one pass; the others skip what the block's range decides
        (see :class:`SliceRead`) with the bits a reading gives, as rounding
        is monotone: ``fl(f - s)`` peaks where ``f`` does, and ``(f - c)_+``
        is ``+0.0`` where ``f <= c``.  A ball's copy lives while its reads do."""
        live = [(read, table) for read, table in self.tables.items() if max(lo, read.first) < hi]
        if jumps := [(read.radius, table) for read, table in live if read.kind == "jumps"]:
            self._jumps(lo, hi, slab, jumps)
        block = _Block(self.spec, slab[:, :hi - lo])
        for read, table in live:
            if block.key is not None and block.key[0] != read.radius:
                block.key = block.gathered = None
            if read.kind != "jumps":
                start = max(lo, read.first)
                self._fill(block, read, start - lo, table[:, start:hi])

    def _fill(self, block: _Block, read: SliceRead, skip: int, out: NDArray) -> bool:
        """Write ``read``'s entries of the rows ``skip:`` of ``block`` to
        ``out``; False when the block's range decided them unread."""
        kind, arg, spec, decided = read.kind, read.arg, self.spec, None
        if kind == "count":
            shift, low, high, closed = arg
            upto, beyond = (np.less_equal, np.greater) if closed else (np.less, np.greater_equal)
            top, bottom = (v[:, skip:] - shift if shift else v[:, skip:]
                           for v in block.extent(read.radius, read.negated))
            if np.all((top <= low) | beyond(bottom, high)):
                decided = 0
            elif np.all((bottom > low) & upto(top, high)):
                decided = block.cells(read.radius, read.negated).shape[-1]  # held by extent
        elif kind in ("excess", "gradient"):  # (f - c)_+ is +0.0 where f <= c
            if np.all(block.extent(None, read.negated)[0][:, skip:] <= arg[0]):
                decided = 0.0
        if decided is not None:
            out[:] = decided
            return False
        rows = block.cells(None if kind == "gradient" else read.radius, read.negated)[:, skip:]
        if kind == "max":
            rows.max(axis=-1, initial=-np.inf, out=out)
        elif kind == "min":
            rows.min(axis=-1, initial=np.inf, out=out)
        elif kind == "count":
            vals = rows - shift if shift else rows
            out[:] = np.count_nonzero((vals > low) & upto(vals, high), axis=-1)
        elif kind == "plus_min":
            np.add(rows, self.addends[read]).min(axis=-1, out=out)
        else:  # excess and gradient: the truncation (f - c)_+
            trunc = rows - arg[0]
            np.maximum(trunc, 0.0, out=trunc)
            if kind == "excess":
                out[:] = trunc.sum(axis=-1)
            else:
                out[:] = gradient_norm_p_rows(
                    trunc.reshape(-1, *spec.spatial_shape), spec, arg[1],
                    np.flatnonzero(ball_mask(spec, read.radius))).reshape(out.shape)
        return True

    def _jumps(self, lo: int, hi: int, slab, tables) -> None:
        """The ``jumps`` entries of block ``lo:hi`` of each ``(radius,
        table)``: the jumps along time and each spatial axis are one
        :class:`ShiftedDifference` into one buffer and one ``abs`` for all
        radii; its zeroed edges do not raise a maximum (in time, a member's
        last slice is one), and a ball counts only pairs of two of its cells
        (the mask ANDed with itself shifted by the axis stride)."""
        spec, (members, k, cells) = self.spec, slab.shape
        buf, flat = np.empty(slab.size), slab.reshape(-1)
        # (stride, length, table column, mask shift) of time, then of space
        axes = [(cells, k, 1, 0), *((stride, spec.cells_per_axis, 0, stride)
                                    for stride in axis_strides(spec))]
        for stride, length, column, shift in axes:
            d = ShiftedDifference(stride, length, buf)(flat).reshape(members, k, cells)
            np.abs(d, out=d)
            for radius, table in tables:
                mask = None if radius is None else ball_mask(spec, radius).reshape(-1)
                pairs = d if mask is None else np.take(
                    d, np.flatnonzero(mask[shift:] & mask[:cells - shift]), axis=-1)
                out = table[:, lo:hi, column]
                np.maximum(out, pairs.max(axis=-1, initial=0.0)[:, :hi - lo], out=out)

    def table(self, kind: str, radius, arg: tuple = (), first: int = 0,
              negated: bool = False) -> NDArray[np.float64]:
        """The table of the read ``SliceRead(kind, radius, arg, negated,
        first)``, one entry per slice in the order of the field read (the
        reflection's order, from the read of the other sign, after
        :meth:`reflection`)."""
        read = SliceRead(kind, radius, arg, self.reflected != negated, first)
        table = self.tables[read][self.row]
        return table[::-1] if self.reflected else table

    def max(self, win: Window) -> float:
        """Largest value in the window."""
        return float(self.table("max", win.radius)[win.slices].max())

    def min(self, win: Window) -> float:
        """Smallest value in the window."""
        return float(self.table("min", win.radius)[win.slices].min())

    def measure(self, win: Window, lo: float = -math.inf, hi: float = math.inf,
                closed_upper: bool = False, shift: float = 0.0) -> float:
        """Cell-counting measure of ``{lo < f - shift < hi}`` (``<= hi``
        when ``closed_upper``) in the window; see :func:`level_set_measure`."""
        counts = self.table("count", win.radius, (shift, lo, hi, closed_upper))
        return win.measure(counts[win.weighted_slices()])

    def integral(self, win: Window, above: float) -> float:
        """Time-weighted cell-counting integral of the excess ``(f -
        above)_+`` over the cylinder."""
        weighted = win.weighted_slices()
        sums = self.table("excess", win.radius, (above,))[weighted]
        return in_slice_order((win.weights[weighted] * sums) * self.spec.cell_volume)

    def one_cell(self, win: Window | None = None) -> float:
        """Largest single-cell jump, space or time, between two cells of the
        window (see :func:`one_cell_oscillation`), or of the whole field
        without one."""
        n = self.spec.n_slices
        if win is None:
            radius, start, stop = None, 0, n
        else:
            radius, start, stop = win.radius, int(win.slices[0]), int(win.slices[-1]) + 1
        if self.reflected:  # the same pairs, in the field's slice order
            start, stop = n - stop, n - start
        jumps = self.tables[SliceRead("jumps", radius)][self.row]
        return max(0.0, float(jumps[start:stop, 0].max(initial=0.0)),
                   float(jumps[start:stop - 1, 1].max(initial=0.0)))


class SliceScan:
    """Blocks of consecutive slices of a field, in slice order, for readers
    such as :class:`SliceTables` and ``solver.ResidualRows``.

    Each block holds about ``_BLOCK_CELLS`` cells (see :func:`slice_blocks`;
    a batch's, half of one member's block split evenly among the members)
    and one slice of overlap with the next block for time differences; a
    reader gets ``take(lo, hi, slab)`` with
    ``slab`` the C-contiguous ``(members, slices, cells)`` block of each
    member's slices ``lo..hi-1`` and of slice ``hi`` when the field has
    it: one call a block for every member of a batched march.  A scan is
    fed either every slice in order, as ``scan(i, slice_i)``, which
    ``solver.solve`` does as it marches (the scan gathers the slices into
    a ring of one block; a batch's ``slice_i`` holds every member's), or a
    field of one member at once through :meth:`read`.
    """

    def __init__(self, spec: GridSpec, readers, members: int = 1) -> None:
        self.spec, self.readers = spec, list(readers)
        self._n, self._cells = spec.n_slices, math.prod(spec.spatial_shape)
        self._members = members
        block = min(self._n, _BLOCK_CELLS // self._cells)
        if members > 1:
            # beside a batch's block lie every member's tables and kept
            # slices, so the block is half of one member's, shared evenly
            block //= 2 * members
        self._step = max(1, block)
        # the block lo:hi is whole once slice end = min(hi, n - 1) is in
        self._lo, self._end = 0, min(self._step, self._n - 1)
        self._ring = None

    def _take(self, lo: int, hi: int, slab: NDArray[np.float64]) -> None:
        for reader in self.readers:
            reader.take(lo, hi, slab)

    def __call__(self, i: int, values: NDArray[np.float64]) -> None:
        if self._ring is None:
            self._ring = np.empty((self._members, min(self._step + 1, self._n),
                                   self._cells))
            # each ring position as a view shaped like the slices fed
            self._slots = [self._ring[:, j].reshape(values.shape)
                           for j in range(self._ring.shape[1])]
        self._slots[i - self._lo][...] = values
        # a block ending at n - 2 leaves slice n - 1 as a block of its own
        while i == self._end:
            lo, n = self._lo, self._n
            hi = min(lo + self._step, n)
            # a shorter last block is a copy when there are several members
            self._take(lo, hi, np.ascontiguousarray(self._ring[:, :i - lo + 1]))
            if hi == n:
                self._ring = self._slots = None
                return
            self._ring[:, 0] = self._ring[:, i - lo]
            self._lo, self._end = hi, min(hi + self._step, n - 1)

    def read(self, f, start: int = 0, stop: int | None = None) -> SliceScan:
        """Feed the slices ``start:stop`` of ``f`` (every slice by default),
        read through ``f.rows`` a block at a time; returns the scan."""
        stop = self._n if stop is None else stop
        for lo, hi in slice_blocks(start, stop, self._cells):
            rows = f.rows(lo, min(hi + 1, stop))
            self._take(lo, hi, np.ascontiguousarray(rows).reshape(1, len(rows), -1))
        return self


def save_snapshot(f: ScalarField, base_path: str | Path) -> tuple[Path, Path]:
    """Write ``<base>.csv`` (rows ``t,x1,...,xN,u``) plus ``<base>.json`` descriptor.

    Values are printed with 17 significant digits so float64 samples
    round-trip exactly; the JSON descriptor round-trips the grid bit-exactly.
    The CSV has ``csv.writer``'s bytes (comma-separated, ``\\r\\n`` line
    ends, no field needs quoting); each cell's coordinates are formatted
    once per file.
    """
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    json_path = base.with_suffix(".json")
    spec = f.spec
    header = ["t"] + [f"x{i + 1}" for i in range(spec.dimension)] + ["u"]
    # cells in C order: the cell centers are the product of one axis
    axis = [f"{c:.17g}" for c in spec.axis_centers().tolist()]
    cells = [",".join(x) for x in itertools.product(axis, repeat=spec.dimension)]
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for t, values in zip(spec.times().tolist(),
                             f.values.reshape(spec.n_slices, -1)):
            t_text = f"{t:.17g}"
            for lo in range(0, len(cells), _CSV_ROWS):
                part = zip(cells[lo:lo + _CSV_ROWS], values[lo:lo + _CSV_ROWS].tolist())
                fh.write("".join([f"{t_text},{x},{v:.17g}\r\n" for x, v in part]))
    with open(json_path, "w") as fh:
        write_json(spec, fh)
    return csv_path, json_path

