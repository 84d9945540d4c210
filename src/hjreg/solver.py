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

The march has a leading member axis: ``solve`` of a list of initial data
advances every member's slice in one ``(members, *spatial_shape)`` block a
step.  A member boundary is a slice boundary, so the outflow zeros keep
each member's differences to itself, and each member's dissipation, CFL
margin and checks are taken from its own row with a lone solve's scalar
arithmetic: every member's slices have the bits of its own march.

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
from array import array
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .grid import (
    _BLOCK_CELLS,
    GridSpec,
    ScalarField,
    ShiftedDifference,
    SliceScan,
    axis_strides,
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
    "ResidualRows",
    "ResidualTerm",
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

    ``field`` holds every slice, or only the kept ones (its ``kept``): a
    run keeps the slices its zooms, snapshots and oracle read, and its
    checks take everything else they read from the run's one
    ``grid.SliceScan``, which the march fed with every slice.  A batch's
    field, ``cfl_margins`` and ``max_updates`` have a member axis after
    their slice or step axis, and :meth:`member` is one member's
    trajectory, equal to its own solve's.
    """

    field: ScalarField
    cfl_margins: NDArray[np.float64]
    max_updates: NDArray[np.float64]

    @property
    def spec(self) -> GridSpec:
        return self.field.spec

    def member(self, m: int) -> Trajectory:
        """Member ``m`` of a batch."""
        return Trajectory(self.field.member(m), self.cfl_margins[:, m], self.max_updates[:, m])


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


def _page_buffers(*sizes: int) -> list[NDArray[np.float64]]:
    """Zeroed float64 buffers of ``sizes`` entries, each starting on a
    4,096-byte boundary of one array.  Where the heap puts separate arrays
    depends on everything allocated before them, and the step's speed on
    that: on a 2-core x86-64 host one 96^2 step took 61 to 73 us as the
    heap placed its buffers, and 61 us with them on page boundaries."""
    page = 4096 // 8
    spans = [-(-n // page) * page for n in sizes]
    arena = np.zeros(sum(spans) + page)
    start = -(arena.ctypes.data // 8) % page
    buffers = []
    for n, span in zip(sizes, spans):
        buffers.append(arena[start:start + n])
        start += span
    return buffers


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
    """Forward-Euler steps of a batch of members on one grid, with work
    buffers allocated once.

    A step reads and writes a C-contiguous ``(members, *spatial_shape)``
    block, one slice per member (a lone slice when there is one member),
    raveled into one lattice: a member boundary is a slice boundary, so the
    outflow zeros at its edges keep every difference inside its member.
    Each axis's raw ``D+`` is the forward difference of the raveled block
    and ``D-`` its buffer read one stride earlier (see the module
    docstring); the views of both, of the entries the outflow zeroes and of
    the axis's centered sum ``D+ + D-`` are built here, once per solve, as
    one plan tuple per axis.  A block's plan adds its raveled view and each
    axis's ``flat[s:]`` and ``flat[:-s]``: built once for the march's two
    scratch blocks (:meth:`scratch`), on each step for a kept slice, and
    carried from the step that wrote the block to the step that reads it.
    ``h.eval``, the step's one call into the Hamiltonian, gets
    ``A (0.5/h)^p``, built here if ``A`` is static, else per step; when a
    bound on that product is not finite, it gets ``A`` and the centered
    sums times ``0.5/h``.  The blocks the step reads and writes must be
    C-contiguous, as ``_flat_view`` checks.

    Each member keeps its own ``max |P|``, dissipation, CFL margin, checks
    and ``max |update|``, taken row by row in member order with the scalar
    arithmetic of a lone solve, so each member's slices have the bits of
    its own march.  The finiteness pass over the new block runs only when
    an overflow is possible.  The kernel keeps a bound on ``|u|`` over the
    block, taken from the block when it is not the one the previous call
    wrote and grown by each step's largest ``max |update|``; while the
    bound plus that maximum stays under ``_FINITE_BOUND``, every entry of
    ``u + update`` is finite.  A NaN or inf in an update, or a bound past
    the constant, runs the full check, after which the bound is taken
    again from the new block.
    """

    def __init__(self, spec: GridSpec, h, cfg: SolveConfig, members: int = 1):
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
        cells = members * math.prod(shape)
        strides = axis_strides(spec)
        diff, self.jump, self.pnorm_sq, self.work, components = _page_buffers(
            strides[0] + cells, cells, cells, cells, spec.dimension * cells)
        self.finite = np.empty(cells, dtype=bool)
        # (members, *shape, N) with each component contiguous: ``h.eval``
        # sums the squared components in axis order.
        components = components.reshape(spec.dimension, members, *shape)
        self.grad = np.moveaxis(components, 0, -1)
        self.hval = self.work.reshape(members, *shape)
        # the member rows the per-member reductions read, and each member's
        # update factor
        self.pnorm_rows, self.jump_rows = (a.reshape(members, -1)
                                           for a in (self.pnorm_sq, self.jump))
        self.factors = np.empty((members, 1))
        self.batch = members > 1
        # each step's per-member margins and max |update|, packed as doubles
        self.margins, self.updates = array("d"), array("d")
        # In 1-D the one edge entry of a lone slice lies past the
        # subtraction's output and stays 0.0 (squared), so it is zeroed
        # once, here.
        self.axes = []
        for stride, central in zip(strides, components.reshape(spec.dimension, cells)):
            along = ShiftedDifference(stride, spec.cells_per_axis, diff, strides[0])
            edges = along.edges if spec.dimension > 1 or members > 1 else None
            self.axes.append((stride, (along.head, edges, along.fwd, along.prev, central)))
        self.lattice_scale = (0.5 / self.width) ** h.p
        # Where A (0.5/h)^p overflows, a zero gradient would give 0 * inf =
        # NaN: then the centered sums are scaled by 0.5/h instead, and
        # ``eval`` gets A itself.
        self.sum_scale = None
        if not math.isfinite(h.sup_coefficient * self.lattice_scale):
            self.sum_scale, self.lattice_scale = 0.5 / self.width, 1.0
        # ``h.dissipation_bound`` with its per-solve factor taken once:
        # sigma = (sup A * p) * |P|^(p - 1)
        self.sigma_scale, self.sigma_power = h.sup_coefficient * h.p, h.p - 1.0
        self.coefficient = (
            h.coefficient_field(spec.t_start, self.centers) * self.lattice_scale
            if h.static_coefficient
            else None
        )
        # the block the last call wrote, its plan and the bound on its |u|
        self.last = self.last_plan = self.bound = None
        # the march's scratch blocks and their plans by id (see :meth:`scratch`)
        self.blocks, self.plans = (), {}

    def _plan(self, block: NDArray[np.float64]) -> tuple:
        """``block`` raveled, and each axis's ``(flat[s:], flat[:-s])``
        beside the axis's views of :attr:`axes`."""
        flat = _flat_view(block)
        return flat, [(flat[stride:], flat[:-stride]) + views
                      for stride, views in self.axes]

    def scratch(self, shape: tuple[int, ...]) -> tuple[NDArray[np.float64], ...]:
        """Two blocks of ``shape`` for the slices a march drops, their plans
        built here, once; a kept slice's are built on each step that writes
        it."""
        # held here: an id names its block only while the block is alive
        self.blocks = tuple(np.empty((2, *shape)))
        self.plans = {id(block): self._plan(block) for block in self.blocks}
        return self.blocks

    def __call__(
        self,
        u: NDArray[np.float64],
        t: float,
        step_index: int,
        out: NDArray[np.float64],
    ) -> None:
        """Write the step from ``u`` at time ``t`` into ``out``, and append
        each member's cfl margin and max |update|, in member order, to
        :attr:`margins` and :attr:`updates`."""
        jump, pnorm_sq, work = self.jump, self.pnorm_sq, self.work
        carried = u is self.last
        flat_u, shifted = self.last_plan if carried else self._plan(u)
        plan = self.plans.get(id(out)) or self._plan(out)
        for axis, (ahead, behind, head, edges, fwd, prev, central) in enumerate(shifted):
            # raw D+ = u[j+1] - u[j] and D- = u[j] - u[j-1] = D+[j-1]
            np.subtract(ahead, behind, out=head)
            if edges is not None:
                edges.fill(0.0)
            np.add(fwd, prev, out=central)
            # max(|D+|, |D-|)^2 as max(D+^2, D-^2): rounding is monotone
            if axis == 0:
                np.subtract(fwd, prev, out=jump)
                np.square(fwd, out=fwd)
                np.maximum(fwd, prev, out=pnorm_sq)
            else:
                np.add(jump, np.subtract(fwd, prev, out=work), out=jump)
                np.square(fwd, out=fwd)
                np.add(pnorm_sq, np.maximum(fwd, prev, out=work), out=pnorm_sq)

        # one reduction over a lone member, row by row over a batch's; a
        # lone member's is the entry at argmax, the full reduction's value:
        # the sums hold no -0.0, and argmax stops at a NaN
        if self.batch:
            steps = [self._dissipation(peak, step_index)
                     for peak in np.maximum.reduce(self.pnorm_rows, axis=1).tolist()]
            self.margins.extend([margin for margin, _ in steps])
            self.factors[:, 0] = [factor for _, factor in steps]
        else:
            margin, factor = self._dissipation(pnorm_sq.item(pnorm_sq.argmax()), step_index)
            self.margins.append(margin)

        if self.sum_scale is not None:
            np.multiply(self.grad, self.sum_scale, out=self.grad)
        coefficient = self.coefficient
        if coefficient is None:
            coefficient = self.h.coefficient_field(t, self.centers)
            np.multiply(coefficient, self.lattice_scale, out=coefficient)
        # the gradient is scratch from here on: eval squares it in place
        self.h.eval(t, self.centers, self.grad, coefficient, out=self.hval)
        # update = (-dt) * (H - (0.5 sigma / h) * jump), built in the jump buffer
        if self.batch:
            np.multiply(self.jump_rows, self.factors, out=self.jump_rows)
        else:
            np.multiply(jump, factor, out=jump)
        update = jump
        np.subtract(work, update, out=update)
        np.multiply(update, -self.dt, out=update)
        flat_out = plan[0]
        np.add(flat_u, update, out=flat_out)
        np.abs(update, out=update)
        if self.batch:
            max_updates = np.maximum.reduce(self.jump_rows, axis=1).tolist()
            self.updates.extend(max_updates)
            max_update = max(max_updates)
        else:  # as the peak above: |update| holds no -0.0
            max_update = update.item(update.argmax())
            self.updates.append(max_update)
        bound = (self.bound if carried
                 else max(float(flat_u.max()), -float(flat_u.min()))) + max_update
        if not bound < _FINITE_BOUND:
            if not np.logical_and.reduce(np.isfinite(flat_out, out=self.finite)):
                raise SolverError(
                    f"step {step_index}: non-finite values produced", step_index
                )
            bound = max(float(flat_out.max()), -float(flat_out.min()))
        self.last, self.last_plan, self.bound = out, plan, bound

    def _dissipation(self, peak: float, step_index: int) -> tuple[float, float]:
        """A member's CFL margin and update factor ``0.5 sigma / h`` from the
        peak of its ``max(D+^2, D-^2)`` sums, after its checks."""
        width = self.width
        pnorm_max = math.sqrt(peak) / width
        sigma_est = max(self.sigma_scale * max(pnorm_max, 0.0) ** self.sigma_power, 0.0)
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
        return margin, 0.5 * sigma_diss / width


def solve(
    spec: GridSpec,
    h,
    u0,
    cfg: SolveConfig | None = None,
    keep: list[range] | None = None,
    scan: Callable[[int, NDArray[np.float64]], None] | None = None,
) -> Trajectory:
    """March the initial data across the whole time lattice.

    ``u0`` is either an array on the spatial lattice or a callable applied to
    the cell-center coordinate array (shape ``(*spatial_shape, dimension)``),
    or a list of these, one per member of a batch: the members march
    together, one kernel call a step, each with the bits of its own solve.
    ``keep`` lists the ranges of slice indices to store (every slice by
    default); the other slices are marched through in two scratch blocks
    and dropped, and unless every slice is kept the field's ``kept`` lists
    the slices it holds.  A ``scan`` is called as ``scan(i, slice_i)`` on
    every slice in order as soon as it is computed (for a batch, the
    ``(members, *spatial_shape)`` block of every member's slice ``i``), a
    view that the march may overwrite once the call returns: a run's one
    ``grid.SliceScan`` takes the per-slice tables and residual rows of
    every check this way, the gauge's included.  The returned field wraps
    the one array of kept slices the march fills; a batch's is every
    member's (see :class:`Trajectory`).
    Any member's abort aborts the batch, with the first aborting member's
    error.
    """
    cfg = cfg or SolveConfig()
    batch = isinstance(u0, list)
    members = u0 if batch else [u0]
    times = spec.times()
    kernel = _StepKernel(spec, h, cfg, len(members))
    init = np.empty((len(members), *spec.spatial_shape))
    for m, data in enumerate(members):
        if callable(data):
            data = np.broadcast_to(np.asarray(data(kernel.centers), dtype=np.float64),
                                   spec.spatial_shape)
        data = np.asarray(data, dtype=np.float64)
        if data.shape != spec.spatial_shape:
            raise ValueError(
                f"initial data shape {data.shape} does not match grid "
                f"{spec.spatial_shape}"
            )
        init[m] = data
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
    # every member's slice i is one contiguous block
    values = np.empty((int(slot[-1]) + 1, *init.shape))
    held = None if kept.all() else np.flatnonzero(kept)
    # the blocks the kernel and the scan get: a lone member's slice alone
    march = values if batch else values[:, 0]
    scratch = () if held is None else kernel.scratch(march.shape[1:])
    u = march[0] if kept[0] else scratch[0]
    u[...] = init if batch else init[0]
    del init  # not alive through the march
    if scan is not None:
        scan(0, u)
    for i in range(1, spec.n_slices):
        out = march[slot[i]] if kept[i] else scratch[i % 2]
        kernel(u, times.item(i - 1), i - 1, out)
        if scan is not None:
            scan(i, out)
        u = out
    traj = Trajectory(
        field=ScalarField(spec, values, held),
        cfl_margins=np.frombuffer(kernel.margins).reshape(n_steps, -1),
        max_updates=np.frombuffer(kernel.updates).reshape(n_steps, -1))
    return traj if batch else traj.member(0)


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


class ResidualTerm(NamedTuple):
    """One inequality's residual ``du/dt + a |grad u|^p - b``: a
    subsolution's, or with ``b = 0`` a supersolution's, on the field, or
    with ``reflected`` on its reflection ``v(t, x) = -f(-t, x)``.

    A forward term with ``stop_below`` asks only whether some row's min
    falls below it: :class:`ResidualRows` stops taking it after the first
    block of slices by whose end every member has such a row."""

    a: float
    b: float = 0.0
    reflected: bool = False
    stop_below: float | None = None


@dataclass(frozen=True)
class ResidualReport:
    """Discrete residual of a one-sided Hamilton-Jacobi inequality.

    The residual uses the solver's own gradient (centered one-sided average
    with outflow padding) and a forward time difference.  ``values`` is a
    ``(n_slices - 1, 3)`` table: row ``i`` holds the min and the max of the
    residual at slice time ``t_i`` over all cells, and its max over the
    ball mask (the whole box without one).  One :class:`ResidualRows` pass
    over a trajectory serves every check that reads it; the report of a
    term with ``stop_below`` holds the rows up to where it stopped.
    """

    values: NDArray[np.float64]
    max_positive: float
    min_value: float
    ball_max: float


class ResidualRows:
    """The residual of each of ``terms`` from one ``G = |grad u|^p`` per
    block of slices, reduced per slice into a ``ResidualReport`` table; no
    slices x cells array is kept.  A block reader of a
    :class:`~hjreg.grid.SliceScan`, fed by the march or by a field; the
    tables of a batched march's ``members`` fill together, one row per
    member, and :meth:`reports` reads one member's.

    A forward term's row ``j`` is ``dudt[j] + a G[j] - b``.  A reflected
    term's row ``i`` is the reflection's, ``dudt[j] + a G[j + 1] - b`` with
    ``j = n_slices - 2 - i``: negation, the time difference and the squares
    are sign-symmetric, so it has the bits of the residual of the
    reflection ``-f(-t, x)``.  ``ball`` masks the table's third
    column (the whole box without one).  A term with ``stop_below`` is not
    taken after the first block by whose end each member has had a row
    whose min is below it, so its rows end there (see :meth:`reports`).
    """

    def __init__(self, spec: GridSpec, p: float, terms: Sequence[ResidualTerm],
                 ball: NDArray[np.bool_] | None = None, members: int = 1) -> None:
        self.spec, self.p, self.terms = spec, p, list(terms)
        if any(term.reflected and term.stop_below is not None for term in self.terms):
            raise ValueError("a reflected term cannot stop early")
        self.tables = [np.empty((members, spec.n_slices - 1, 3)) for _ in self.terms]
        # each term's rows taken so far, and the members with a row below
        # its stop_below
        self._ends = [0] * len(self.terms)
        self._below = np.zeros((len(self.terms), members), dtype=bool)
        self._outside = None if ball is None else np.flatnonzero(~np.asarray(ball).reshape(-1))

    def take(self, lo: int, hi: int, slab: NDArray[np.float64]) -> None:
        """The rows of the time differences inside ``slab``, each member's
        slices ``lo..`` of a :class:`~hjreg.grid.SliceScan` block, for
        every term still taken."""
        spec, rows = self.spec, self.spec.n_slices - 1
        members, k, cells = slab.shape
        live = [j for j, below in enumerate(self._below) if not below.all()]
        if k < 2 or not live:
            return
        size, pad = members * (k - 1) * cells, axis_strides(spec)[0]
        # three block-sized arrays, alive while the block is taken: the
        # differences after their zero pad (then the residual), the
        # components (then du/dt) and |grad u|^p
        diff = np.zeros(pad + slab.size)
        comp, sq = np.empty((2, slab.size))
        end = lo + k - 1
        grad_term = _central_gradient_norm(slab.reshape(-1), spec, diff, comp, sq)
        grad_term **= self.p
        grad_term = grad_term.reshape(slab.shape)
        dudt = comp[:size].reshape(members, k - 1, cells)
        np.subtract(slab[:, 1:], slab[:, :-1], out=dudt)
        dudt /= spec.dt
        res = diff[pad:pad + size].reshape(dudt.shape)
        for j in live:
            (a_coef, b_const, reflected, stop_below), table = self.terms[j], self.tables[j]
            np.multiply(a_coef, grad_term[:, 1:] if reflected else grad_term[:, :-1],
                        out=res)
            np.add(dudt, res, out=res)
            if b_const or math.copysign(1.0, b_const) < 0.0:  # - (+0.0) keeps every bit
                res -= b_const
            # a reflected term's rows run backwards from rows - 1 - lo
            part = (table[:, rows - end:rows - lo][:, ::-1] if reflected
                    else table[:, lo:end])
            res.min(axis=-1, out=part[..., 0])
            res.max(axis=-1, out=part[..., 1])
            if self._outside is None:
                part[..., 2] = part[..., 1]
            else:  # res is a work array: -inf outside the ball, then a plain max
                res[..., self._outside] = -np.inf
                res.max(axis=-1, out=part[..., 2])
            self._ends[j] = end
            if stop_below is not None:
                self._below[j] |= part[..., 0].min(axis=-1) < stop_below

    def reports(self, member: int = 0) -> list[ResidualReport]:
        """The report of each term, in order, once the march is read: of
        ``member``'s rows, every row, or a stopped term's rows up to the
        end of the block it stopped after."""
        return [ResidualReport(table, float(max(table[:, 1].max(), 0.0)),
                               float(table[:, 0].min()), float(table[:, 2].max()))
                for table in (tables[member, :end]
                              for tables, end in zip(self.tables, self._ends))]


def _residual(f, p: float, terms: list[ResidualTerm], ball) -> list[ResidualReport]:
    """The reports of ``terms`` from one :class:`ResidualRows` pass over
    every slice of ``f``, in order."""
    rows = ResidualRows(f.spec, p, terms, ball)
    SliceScan(f.spec, [rows]).read(f)
    return rows.reports()


def residual_subsolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    b_const: float | None = None,
    *,
    ball: NDArray[np.bool_] | None = None,
    reflected: bool = False,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p - B <= 0``; defaults A=1/lam, B=lam.
    ``ball`` is a spatial mask for the table's third column.  With
    ``reflected`` the residual is that of ``-f(-t, x)``."""
    a = 1.0 / env.lam if a_coef is None else a_coef
    b = env.lam if b_const is None else b_const
    return _residual(f, env.p, [ResidualTerm(a, b, reflected)], ball)[0]


def residual_supersolution(
    f: ScalarField, env: CoercivityEnvelope, a_coef: float | None = None
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p >= 0``; defaults A=lam."""
    a = env.lam if a_coef is None else a_coef
    return _residual(f, env.p, [ResidualTerm(a)], None)[0]
