"""Monotone finite-difference marching for Hamilton-Jacobi equations.

The scheme integrates ``du/dt + H(t, x, grad u) = 0`` with forward Euler in
time and a local Lax-Friedrichs numerical Hamiltonian in space:

    Hhat(D+, D-) = H((D+ + D-) / 2) - sum_axis sigma_axis * (D+_axis - D-_axis) / 2

where ``D+``/``D-`` are one-sided differences (constant extrapolation past
the box edge, i.e. outflow) and ``sigma_axis`` dominates ``|dH/dP|`` over the
gradients present in the slice.  Under the CFL restriction
``dt * N * sigma / cell_width <= 1`` the update is monotone, which is what
every comparison-based check downstream leans on.

The step and the residual's gradient work on the raveled C-contiguous
lattice.  Along an axis of element stride ``s`` the forward difference of a
slice, or of a block of slices, is the one contiguous subtraction
``flat[s:] - flat[:-s]``, with the entries at the last index along that
axis set to 0.0, the outflow value.  The difference buffer begins with
``s_0`` zeros (``s_0`` the largest stride), so ``D-`` is the same buffer
read ``s`` entries earlier and is exactly 0.0 at each lower edge, also
where one slice of a block ends and the next begins.  The differences stay
raw, not divided by the cell width ``h``: for ``H = A |P|^p + B`` a step is
``A (0.5/h)^p (sum (D+ + D-)^2)^(p/2) + B - (0.5 sigma/h) sum (D+ - D-)``.

The exact-solution oracle for space-homogeneous power laws is the inf-convolution

    u(t, x) = min_y { u0(y) + t * c_p * (|x - y| / t)^(p/(p-1)) },
    c_p = (p - 1) * p^(-p/(p-1)),

evaluated by lattice minimization with local refinement from two starts,
the point itself and the best point of a dense lattice, for a whole array of
points at once.  It shares no code with the marching scheme, so the two
sides cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import (
    _BLOCK_CELLS,
    GridSpec,
    ScalarField,
    ShiftedDifference,
    axis_strides,
    slice_blocks,
)
from .hamiltonians import CoercivityEnvelope

__all__ = [
    "SolveConfig",
    "Trajectory",
    "SolverError",
    "snap_dt",
    "solve",
    "hopf_lax",
    "ResidualReport",
    "residual_subsolution",
    "residual_supersolution",
]

SIGMA_INFLATION = 1.5
_SIGMA_FLOOR = 1e-12
# While a bound on |u| plus max |update| stays below this, far under the
# float maximum, every entry of u + update is finite (see _StepKernel).
_FINITE_BOUND = 2.0**1000


class SolverError(RuntimeError):
    """Marching aborted; ``step_index`` locates the offending step."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class SolveConfig:
    """Marching controls.

    Attributes:
        cfl_safety: CFL safety factor in (0, 1].
        sigma_mode: ``adaptive`` re-estimates the dissipation from each
            slice's gradients (inflated by 1.5); ``fixed`` uses
            ``sigma_bound`` unconditionally, which keeps the numerical
            Hamiltonian identical across runs (needed for pairwise
            comparison experiments).
        sigma_bound: a-priori bound on ``|dH/dP|``, positive; required in
            fixed mode and not read in adaptive mode.
        max_steps: optional hard cap (>= 1) on the number of steps.
    """

    cfl_safety: float = 0.5
    sigma_mode: str = "adaptive"
    sigma_bound: float | None = None
    max_steps: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety}")
        if self.sigma_mode not in ("adaptive", "fixed"):
            raise ValueError(f"unknown sigma_mode {self.sigma_mode!r}")
        if self.sigma_mode == "fixed" and self.sigma_bound is None:
            raise ValueError("fixed sigma_mode requires sigma_bound")
        if self.sigma_bound is not None and not self.sigma_bound > 0.0:
            raise ValueError(f"sigma_bound must be positive, got {self.sigma_bound}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")


@dataclass(frozen=True)
class Trajectory:
    """Solve output: the space-time field plus per-step diagnostics.

    ``field`` holds every slice, or only the kept ones (its ``kept``);
    ``scan`` is the observer the march fed with every slice, if any.
    """

    field: ScalarField
    cfl_margins: NDArray[np.float64]
    max_updates: NDArray[np.float64]
    scan: Callable[[int, NDArray[np.float64]], None] | None = None

    @property
    def spec(self) -> GridSpec:
        return self.field.spec


def snap_dt(t_start: float, t_end: float, dt_max: float) -> float:
    """Shrink ``dt_max`` so an integer number of steps spans the window."""
    span = t_end - t_start
    if span <= 0.0 or dt_max <= 0.0:
        raise ValueError("need t_end > t_start and dt_max > 0")
    return span / math.ceil(span / dt_max)


def _flat_view(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """``a`` raveled as a view.  A reshape of an array that is not
    C-contiguous would be a copy, and a write through it would be lost, so
    such an array is a ``ValueError``."""
    if not a.flags.c_contiguous:
        raise ValueError(f"need a C-contiguous array, got strides {a.strides}")
    return a.reshape(-1)


def _central_gradient_norm(
    u: NDArray[np.float64], spec: GridSpec, diff: NDArray[np.float64],
    comp: NDArray[np.float64], sq: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``|grad u|`` with the solver's centered gradient ``(D+ + D-) / 2``
    at every cell of ``u``, a raveled C-contiguous block of whole slices,
    returned in ``sq``; ``comp`` is shaped like ``u``, and ``diff`` holds
    the largest axis stride of zeros followed by room for ``u``.

    Each axis's ``D+`` over the whole block is one
    :class:`~hjreg.grid.ShiftedDifference` into ``diff``, 0.0 where the
    outflow padding puts it, and ``D-`` the same buffer read one stride
    earlier, 0.0 at each lower edge, also where one slice of the block
    ends and the next begins.  The components are squared and summed in
    axis order, as ``np.linalg.norm`` sums them.
    """
    strides = axis_strides(spec)
    for axis, stride in enumerate(strides):
        along = ShiftedDifference(stride, spec.cells_per_axis, diff, strides[0])
        fwd = along(u)
        fwd /= spec.cell_width
        np.add(fwd, along.prev, out=comp)
        comp *= 0.5
        if axis == 0:
            np.multiply(comp, comp, out=sq)
        else:
            comp *= comp
            sq += comp
    return np.sqrt(sq, out=sq)


class _StepKernel:
    """Forward-Euler steps on one grid with work buffers allocated once.

    Each axis's raw ``D+`` is the forward difference of the raveled slice
    and ``D-`` its buffer read one stride earlier (see the module
    docstring); the views of both, of the entries the outflow zeroes and of
    the axis's centered sum ``D+ + D-`` are built here, once per solve, as
    one plan tuple per axis.  ``h.eval``, the step's one call into the
    Hamiltonian, gets ``A (0.5/h)^p``, built here if ``A`` is static, else
    per step.  The slice the step reads and the one it writes must be
    C-contiguous, as ``_flat_view`` checks, since the step works on raveled
    views.

    The finiteness pass over the new slice runs only when an overflow is
    possible.  The kernel keeps a bound on ``|u|``, taken from the slice
    when it is not the one the previous call wrote and grown by each
    step's ``max |update|``; while the bound plus that maximum stays under
    ``_FINITE_BOUND``, every entry of ``u + update`` is finite.  A NaN or
    inf in the update, or a bound past the constant, runs the full check,
    after which the bound is taken again from the new slice.
    """

    def __init__(self, spec: GridSpec, h, cfg: SolveConfig):
        self.spec = spec
        self.h = h
        self.centers = spec.centers()
        self.width = spec.cell_width
        self.dt = spec.dt
        self.dt_n = spec.dt * spec.dimension
        self.safety = cfg.cfl_safety
        # the fixed dissipation, or None to estimate it on every step
        self.sigma_bound = (
            float(cfg.sigma_bound) if cfg.sigma_mode == "fixed" else None
        )
        shape = spec.spatial_shape
        cells = math.prod(shape)
        strides = axis_strides(spec)
        diff = np.zeros(strides[0] + cells)
        self.jump, self.pnorm_sq, self.work = np.empty((3, cells))
        self.finite = np.empty(cells, dtype=bool)
        # (*shape, N) with each component contiguous: ``h.eval`` sums the
        # squared components in axis order.
        components = np.empty((spec.dimension, *shape))
        self.grad = np.moveaxis(components, 0, -1)
        self.hval = self.work.reshape(shape)
        # In 1-D the one edge entry lies past the subtraction's output and
        # stays 0.0 (squared), so it is zeroed once, here.
        self.axes = []
        for stride, central in zip(strides, components.reshape(spec.dimension, cells)):
            along = ShiftedDifference(stride, spec.cells_per_axis, diff, strides[0])
            edges = along.edges if spec.dimension > 1 else None
            self.axes.append((stride, along.head, edges, along.fwd, along.prev, central))
        self.lattice_scale = (0.5 / self.width) ** h.p
        self.coefficient = (
            h.coefficient_field(spec.t_start, self.centers) * self.lattice_scale
            if h.static_coefficient
            else None
        )
        # the slice the last call wrote, its raveled view and the bound on
        # its |u|
        self.last = self.flat_last = self.bound = None

    def __call__(
        self,
        u: NDArray[np.float64],
        t: float,
        step_index: int,
        out: NDArray[np.float64],
    ) -> tuple[float, float]:
        """Write the step from ``u`` at time ``t`` into ``out``; returns
        (cfl margin, max |update|)."""
        width, jump, pnorm_sq, work = self.width, self.jump, self.pnorm_sq, self.work
        carried = u is self.last
        flat_u = self.flat_last if carried else _flat_view(u)
        flat_out = _flat_view(out)
        for axis, (stride, head, edges, fwd, prev, central) in enumerate(self.axes):
            # raw D+ = u[j+1] - u[j] and D- = u[j] - u[j-1] = D+[j-1]
            np.subtract(flat_u[stride:], flat_u[:-stride], out=head)
            if edges is not None:
                edges.fill(0.0)
            np.add(fwd, prev, out=central)
            if axis == 0:
                np.subtract(fwd, prev, out=jump)
            else:
                jump += np.subtract(fwd, prev, out=work)
            # max(|D+|, |D-|)^2 as max(D+^2, D-^2): rounding is monotone
            np.square(fwd, out=fwd)
            if axis == 0:
                np.maximum(fwd, prev, out=pnorm_sq)
            else:
                pnorm_sq += np.maximum(fwd, prev, out=work)

        pnorm_max = math.sqrt(np.maximum.reduce(pnorm_sq)) / width
        sigma_est = max(self.h.dissipation_bound(pnorm_max), 0.0)
        sigma_diss = self.sigma_bound
        if sigma_diss is None:
            sigma_diss = max(SIGMA_INFLATION * sigma_est, _SIGMA_FLOOR)
        elif sigma_est > sigma_diss * (1.0 + 1e-9):
            raise SolverError(
                f"step {step_index}: sampled |dH/dP|={sigma_est:.3g} exceeds the "
                f"fixed dissipation bound {sigma_diss:.3g}",
                step_index,
            )

        ratio_mono = self.dt_n * sigma_diss / width
        if ratio_mono > 1.0 + 1e-9:
            raise SolverError(
                f"step {step_index}: dissipation {sigma_diss:.3g} breaks monotonicity "
                f"(dt*N*sigma/h = {ratio_mono:.3g} > 1)",
                step_index,
            )
        margin = self.safety - self.dt_n * sigma_est / width
        if margin < 0.0:
            # the largest stable step, safety * cell_width / (N * sigma)
            stable = self.safety * width / (self.spec.dimension * sigma_est)
            raise SolverError(
                f"step {step_index}: CFL violation, sampled sigma {sigma_est:.3g} "
                f"needs dt <= {stable:.3g} "
                f"but grid has dt={self.dt}",
                step_index,
            )

        coefficient = self.coefficient
        if coefficient is None:
            coefficient = self.h.coefficient_field(t, self.centers)
            coefficient *= self.lattice_scale
        # the gradient is scratch from here on: eval squares it in place
        self.h.eval(t, self.centers, self.grad, coefficient, out=self.hval)
        # update = (-dt) * (H - (0.5 sigma / h) * jump), built in the jump buffer
        update = jump
        update *= 0.5 * sigma_diss / width
        np.subtract(work, update, out=update)
        update *= -self.dt
        np.add(flat_u, update, out=flat_out)
        max_update = float(np.maximum.reduce(np.abs(update, out=update)))
        bound = (self.bound if carried
                 else max(float(flat_u.max()), -float(flat_u.min()))) + max_update
        if not bound < _FINITE_BOUND:
            if not np.logical_and.reduce(np.isfinite(flat_out, out=self.finite)):
                raise SolverError(
                    f"step {step_index}: non-finite values produced", step_index
                )
            bound = max(float(flat_out.max()), -float(flat_out.min()))
        self.last, self.flat_last, self.bound = out, flat_out, bound
        return margin, max_update


def solve(
    spec: GridSpec,
    h,
    u0: Callable[[NDArray[np.float64]], NDArray[np.float64]] | NDArray[np.float64],
    cfg: SolveConfig | None = None,
    keep: list[range] | None = None,
    scan: Callable[[int, NDArray[np.float64]], None] | None = None,
) -> Trajectory:
    """March the initial data across the whole time lattice.

    ``u0`` is either an array on the spatial lattice or a callable applied to
    the cell-center coordinate array (shape ``(*spatial_shape, dimension)``).
    ``keep`` lists the ranges of slice indices to store (every slice by
    default); the other slices are marched through in two scratch slices
    and dropped, and unless every slice is kept the field's ``kept`` lists
    the slices it holds.  ``scan``, when given, is called as
    ``scan(i, slice_i)`` on every slice in order as soon as it is computed
    (``rescale.GaugeScan`` takes the gauge's reductions this way).  The
    returned field wraps the one array of kept slices the march fills.
    """
    cfg = cfg or SolveConfig()
    times = spec.times()
    kernel = _StepKernel(spec, h, cfg)
    if callable(u0):
        init = np.broadcast_to(
            np.asarray(u0(kernel.centers), dtype=np.float64), spec.spatial_shape
        )
    else:
        init = np.asarray(u0, dtype=np.float64)
        if init.shape != spec.spatial_shape:
            raise ValueError(
                f"initial data shape {init.shape} does not match grid "
                f"{spec.spatial_shape}"
            )
    if not np.all(np.isfinite(init)):
        raise SolverError("initial data contains non-finite values", 0)

    n_steps = spec.n_steps
    if cfg.max_steps is not None and n_steps > cfg.max_steps:
        raise SolverError(
            f"grid needs {n_steps} steps, exceeding max_steps={cfg.max_steps}", 0
        )
    kept = np.ones(spec.n_slices, dtype=bool)
    if keep is not None:
        kept[:] = False
        for r in keep:
            kept[r.start:r.stop] = True
    slot = np.cumsum(kept) - 1
    values = np.empty((int(slot[-1]) + 1, *spec.spatial_shape), dtype=np.float64)
    scratch = None if kept.all() else np.empty((2, *spec.spatial_shape))

    def at(i: int) -> NDArray[np.float64]:
        return values[slot[i]] if kept[i] else scratch[i % 2]

    u = at(0)
    u[...] = init
    if scan is not None:
        scan(0, u)
    margins = np.empty(n_steps)
    updates = np.empty(n_steps)
    for i in range(n_steps):
        out = at(i + 1)
        margins[i], updates[i] = kernel(u, float(times[i]), i, out)
        if scan is not None:
            scan(i + 1, out)
        u = out
    field = ScalarField(spec, values, None if scratch is None else np.flatnonzero(kept))
    return Trajectory(field=field, cfl_margins=margins, max_updates=updates,
                      scan=scan)


def hopf_lax(
    u0: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    t: float,
    x: NDArray[np.float64] | float,
    p: float,
) -> float | NDArray[np.float64]:
    """Inf-convolution value for ``H = |P|^p`` at one point or at many.

    ``x`` is one point (a scalar in one dimension, or an ``(N,)`` array),
    for which the call returns a float, or an ``(M, N)`` array of M points,
    for which it returns an ``(M,)`` array.  Each value minimizes
    ``u0(y) + t * c_p * (|x - y|/t)^(p/(p-1))`` over lattices of candidates
    around ``x``.  The search radius doubles until the penalty at its edge
    exceeds any possible saving.  Then a lattice over that radius is
    recentered on the running minimizer and halved until the value is
    stable to 1e-6.  Because that local search can settle in the wrong
    basin of non-convex data, it runs a second time from the best point of
    a dense lattice over the radius (257 points in 1-D, 65 per axis in 2-D,
    17 in 3-D), and the smaller value is kept; a basin narrower than that
    lattice's spacing can still be missed.  The points run together, a
    block of about ``grid._BLOCK_CELLS`` candidates at a time, each with
    its own stopping rule, so a point's value does not depend on the other
    points.  At ``t = 0`` the call returns ``u0(x)``.

    ``u0`` must accept an array of points with shape ``(M, N)`` and map
    each row on its own; it is never handed a lone row when ``t > 0``.
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    x_arr = np.asarray(x, dtype=np.float64)
    if x_arr.ndim > 2:
        raise ValueError(f"points must have shape (N,) or (M, N), got {x_arr.shape}")
    pts = np.atleast_2d(x_arr)
    if t == 0.0:
        values = np.asarray(u0(pts), dtype=np.float64)
    else:
        dim = pts.shape[1]
        n_probe, n_side, _ = _lattice_sides(dim)
        chunk = max(1, _BLOCK_CELLS // max(1 + n_probe**dim, n_side**dim))
        values = np.empty(len(pts))
        for lo in range(0, len(pts), chunk):
            values[lo:lo + chunk] = _hopf_lax_block(u0, t, pts[lo:lo + chunk], p)
    return float(values[0]) if x_arr.ndim < 2 else values


# Stability tolerance on an oracle value, and the caps on radius doublings
# and refinement halvings per point.
_VALUE_TOL = 1e-6
_MAX_PROBES = 64
_MAX_REFINEMENTS = 200


def _lattice_sides(dim: int) -> tuple[int, int, int]:
    """Points per axis of the radius probe, of the refinement lattice and of
    the global lattice: 257 in 1-D, ``2**ceil(12/N) + 1`` in N >= 2
    dimensions (65 in 2-D, 17 in 3-D: at least 4,096 candidates)."""
    if dim == 1:
        return 9, 17, 257
    return 7, 7, 2 ** -(-12 // dim) + 1


def _hopf_lax_block(
    u0, t: float, x: NDArray[np.float64], p: float
) -> NDArray[np.float64]:
    """Oracle values at the ``(M, N)`` points ``x``, all lattices at once."""
    m, dim = x.shape
    pp = p / (p - 1.0)
    c_p = (p - 1.0) * p ** (-pp)
    n_probe, n_side, n_global = _lattice_sides(dim)

    def objective(cand: NDArray[np.float64], at: NDArray[np.float64]):
        # cand (m', K, N) candidates for the points at (m', N): values (m', K)
        dist = np.linalg.norm(cand - at[:, None, :], axis=-1)
        vals = np.asarray(u0(cand.reshape(-1, dim)), dtype=np.float64)
        return vals.reshape(dist.shape) + t * c_p * (dist / t) ** pp

    # Double each point's radius until the penalty at its edge beats any
    # saving; the value at x itself rides with the first probe.
    radius = np.maximum(1.0, np.abs(x).max(axis=1))
    active = np.arange(m)
    for probe_index in range(_MAX_PROBES):
        at = x[active]
        cand = _lattice(at, radius[active], n_probe, dim)
        if probe_index == 0:
            vals = objective(np.concatenate([at[:, None, :], cand], axis=1), at)
            value_here = vals[:, 0]
            vals = vals[:, 1:]
        else:
            vals = objective(cand, at)
        # the C library's pow on each radius: numpy's vectorized power
        # rounds some values differently
        penalty = np.array([t * c_p * (r / t) ** pp for r in radius[active].tolist()])
        grow = ~(penalty >= value_here[active] - vals.min(axis=1) + 1.0)
        active = active[grow]
        if not active.size:
            break
        radius[active] *= 2.0
    del cand, vals  # not alive through the refinements

    def refine(center, spacing, best):
        # Recenter on the running minimizer and halve the lattice until the
        # value is stable and the spacing small against the search radius.
        stop = np.maximum(_VALUE_TOL, 1e-9 * np.maximum(1.0, radius))
        active = np.arange(m)
        for _ in range(_MAX_REFINEMENTS):
            cand = _lattice(center[active], spacing[active], n_side, dim)
            vals = objective(cand, x[active])
            rows = np.arange(active.size)
            k = np.argmin(vals, axis=1)
            improved = vals[rows, k]
            done = (np.abs(best[active] - improved) < _VALUE_TOL) & (
                spacing[active] < stop[active]
            )
            best[active] = np.where(improved < best[active], improved, best[active])
            center[active] = cand[rows, k]
            spacing[active] *= 0.5
            active = active[~done]
            if not active.size:
                break
        return best

    local = refine(x.copy(), radius.copy(), value_here.copy())
    # Global start: the local search can settle in the wrong basin of
    # non-convex data, so refine again from the best point of a dense
    # lattice over the search radius, one lattice step wide, and keep the
    # smaller value.  The dense lattices go a block of candidates at a time.
    start = np.empty_like(x)
    start_value = np.empty(m)
    step = max(1, _BLOCK_CELLS // n_global**dim)
    for lo in range(0, m, step):
        part = slice(lo, lo + step)
        cand = _lattice(x[part], radius[part], n_global, dim)
        vals = objective(cand, x[part])
        rows = np.arange(len(cand))
        k = np.argmin(vals, axis=1)
        start[part] = cand[rows, k]
        start_value[part] = vals[rows, k]
    del cand, vals
    found = refine(start, radius * (2.0 / (n_global - 1)), start_value)
    return np.where(found < local, found, local)


def _lattice(
    center: NDArray[np.float64], spacing: NDArray[np.float64], n_side: int, dim: int
) -> NDArray[np.float64]:
    """``(M, n_side**dim, N)`` lattice of half-width ``spacing[i]`` around
    each ``center[i]``, in C order over the axes and in C-contiguous memory
    (``u0`` sees its rows as one ``(rows, N)`` block, as it would one point's)."""
    offs = np.linspace(-spacing, spacing, n_side, axis=-1)
    index = np.indices((n_side,) * dim).reshape(dim, -1).T
    out = np.empty((len(center), n_side**dim, dim))
    return np.add(center[:, None, :], offs[:, index], out=out)


@dataclass(frozen=True)
class ResidualReport:
    """Discrete residual of a one-sided Hamilton-Jacobi inequality.

    The residual uses the solver's own gradient (centered one-sided average
    with outflow padding) and a forward time difference.  ``values`` is a
    ``(n_slices - 1, 3)`` table: row ``i`` holds the min and the max of the
    residual at slice time ``t_i`` over all cells, and its max over the
    ball mask (the whole box without one).  ``upper`` is a subsolution
    residual from the same pass, if any.
    """

    values: NDArray[np.float64]
    max_positive: float
    min_value: float
    ball_max: float
    upper: ResidualReport | None = None


def _residual(f, p: float, terms, ball) -> list[ResidualReport]:
    """``(u[i+1] - u[i]) / dt + a |grad u[i]|^p - b`` for each ``(a, b)`` in
    ``terms`` from one ``|grad u|^p`` per block of slices, reduced per slice
    into a ``ResidualReport`` table; no slices x cells array is kept."""
    spec = f.spec
    if spec.n_slices < 2:
        raise ValueError("need at least two slices for a time difference")
    rows, cells = spec.n_slices - 1, math.prod(spec.spatial_shape)
    in_ball = None if ball is None else np.flatnonzero(ball)
    tables = [np.empty((rows, 3)) for _ in terms]
    lo, hi = next(slice_blocks(0, rows, cells))  # the first block is the largest
    # three block-sized arrays for every block in turn: the differences
    # after their zero pad (then the residual), the components (then du/dt)
    # and |grad u|^p
    pad = axis_strides(spec)[0]
    diff = np.zeros(pad + (hi - lo) * cells)
    work = np.empty((2, (hi - lo) * cells))
    for lo, hi in slice_blocks(0, rows, cells):
        slab = np.ascontiguousarray(f.rows(lo, hi + 1)).reshape(-1)
        size = (hi - lo) * cells
        comp, sq = work[:, :size]
        u = slab[:size]
        grad_term = _central_gradient_norm(u, spec, diff[:pad + size], comp, sq)
        grad_term **= p
        dudt = np.subtract(slab[cells:], u, out=comp)
        dudt /= spec.dt
        for (a_coef, b_const), table in zip(terms, tables):
            res = np.multiply(a_coef, grad_term, out=diff[pad:pad + size])
            np.add(dudt, res, out=res)
            res -= b_const
            flat, part = res.reshape(hi - lo, cells), table[lo:hi]
            flat.min(axis=1, out=part[:, 0])
            flat.max(axis=1, out=part[:, 1])
            part[:, 2] = part[:, 1] if in_ball is None else np.take(
                flat, in_ball, axis=1).max(axis=1)
    return [ResidualReport(table, float(max(table[:, 1].max(), 0.0)),
                           float(table[:, 0].min()), float(table[:, 2].max()))
            for table in tables]


def residual_subsolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    b_const: float | None = None,
    *,
    ball: NDArray[np.bool_] | None = None,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p - B <= 0``; defaults A=1/lam, B=lam.
    ``ball`` is a spatial mask for the table's third column."""
    a = 1.0 / env.lam if a_coef is None else a_coef
    b = env.lam if b_const is None else b_const
    return _residual(f, env.p, [(a, b)], ball)[0]


def residual_supersolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    *,
    ball: NDArray[np.bool_] | None = None,
    upper: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p >= 0``; defaults A=lam.  ``upper``
    ``= (A', B')`` adds the residual of ``du/dt + A' |grad u|^p - B' <= 0``
    from the same ``|grad u|^p`` as the report's ``upper``."""
    a = env.lam if a_coef is None else a_coef
    terms = [(a, 0.0)] if upper is None else [(a, 0.0), upper]
    lower, *paired = _residual(f, env.p, terms, ball)
    return replace(lower, upper=paired[0]) if paired else lower
