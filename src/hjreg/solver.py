"""Monotone finite-difference marching for Hamilton-Jacobi equations.

The scheme integrates ``du/dt + H(t, x, grad u) = 0`` with forward Euler in
time and a local Lax-Friedrichs numerical Hamiltonian in space:

    Hhat(D+, D-) = H((D+ + D-) / 2) - sum_axis sigma_axis * (D+_axis - D-_axis) / 2

where ``D+``/``D-`` are one-sided differences (constant extrapolation past
the box edge, i.e. outflow) and ``sigma_axis`` dominates ``|dH/dP|`` over the
gradients present in the slice.  Under the CFL restriction
``dt * N * sigma / cell_width <= 1`` the update is monotone, which is what
every comparison-based check downstream leans on.

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

from .grid import _BLOCK_CELLS, GridSpec, ScalarField, slice_blocks
from .hamiltonians import CoercivityEnvelope

__all__ = [
    "SolveConfig",
    "Trajectory",
    "SolverError",
    "cfl_dt",
    "snap_dt",
    "step",
    "solve",
    "hopf_lax",
    "ResidualReport",
    "residual_subsolution",
    "residual_supersolution",
]

SIGMA_INFLATION = 1.5
_SIGMA_FLOOR = 1e-12


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
    """Solve output: the space-time field plus per-step diagnostics."""

    field: ScalarField
    cfl_margins: NDArray[np.float64]
    max_updates: NDArray[np.float64]

    @property
    def spec(self) -> GridSpec:
        return self.field.spec


def cfl_dt(spec: GridSpec, sigma: float, safety: float) -> float:
    """Largest stable step ``safety * cell_width / (N * sigma)``."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must lie in (0, 1], got {safety}")
    return safety * spec.cell_width / (spec.dimension * sigma)


def snap_dt(t_start: float, t_end: float, dt_max: float) -> float:
    """Shrink ``dt_max`` so an integer number of steps spans the window."""
    span = t_end - t_start
    if span <= 0.0 or dt_max <= 0.0:
        raise ValueError("need t_end > t_start and dt_max > 0")
    return span / math.ceil(span / dt_max)


def _cut(axis: int, start: int | None, stop: int | None) -> tuple:
    """Index that slices ``start:stop`` along ``axis`` and keeps the axes before."""
    return (slice(None),) * axis + (slice(start, stop),)


def _central_gradient_norm(
    u: NDArray[np.float64], spec: GridSpec, work: NDArray[np.float64]
) -> NDArray[np.float64]:
    """``|grad u|`` with the solver's centered gradient ``(D+ + D-) / 2``,
    over the trailing spatial axes of ``u`` (leading axes hold a block of
    slices), built in the three arrays shaped like ``u`` that ``work``
    stacks; the norm is returned in ``work[2]``.

    With outflow padding ``D+`` is the forward difference and 0 at the
    upper edge, ``D-`` the backward difference and 0 at the lower edge, so
    ``D+ + D-`` is formed from one difference per axis; the components are
    squared and summed in axis order, as ``np.linalg.norm`` sums them.
    """
    lead = u.ndim - spec.dimension
    diff, comp, sq = work
    for axis in range(lead, u.ndim):
        d = diff[_cut(axis, 1, None)]
        np.subtract(u[_cut(axis, 1, None)], u[_cut(axis, None, -1)], out=d)
        d /= spec.cell_width
        np.add(d[_cut(axis, 1, None)], d[_cut(axis, None, -1)],
               out=comp[_cut(axis, 1, -1)])
        # At each edge the missing one-sided difference is exactly 0.0.
        comp[_cut(axis, 0, 1)] = d[_cut(axis, 0, 1)] + 0.0
        comp[_cut(axis, -1, None)] = 0.0 + d[_cut(axis, -1, None)]
        comp *= 0.5
        if axis == lead:
            np.multiply(comp, comp, out=sq)
        else:
            comp *= comp
            sq += comp
    return np.sqrt(sq, out=sq)


class _StepKernel:
    """Forward-Euler steps on one grid with work buffers allocated once.

    The one-sided differences are shifted-slice differences written into
    the buffers; with outflow padding the missing difference at each box
    edge is exactly 0.0.  A coefficient field that does not depend on time
    is evaluated once, here, and handed to every ``h.eval``.
    """

    def __init__(self, spec: GridSpec, h, cfg: SolveConfig):
        self.spec = spec
        self.h = h
        self.cfg = cfg
        self.centers = spec.centers()
        shape = spec.spatial_shape
        self.fwd = np.empty(shape)
        self.bwd = np.empty(shape)
        self.diff = np.empty(shape)
        self.jump = np.empty(shape)
        self.pnorm_sq = np.empty(shape)
        self.finite = np.empty(shape, dtype=bool)
        # (*shape, N) with each component contiguous: the norm over the last
        # axis then sums the components in axis order, row by row.
        self.grad = np.moveaxis(np.empty((spec.dimension, *shape)), 0, -1)
        self.axes = [
            (_cut(axis, 1, None), _cut(axis, None, -1),
             _cut(axis, -1, None), _cut(axis, 0, 1), self.grad[..., axis])
            for axis in range(spec.dimension)
        ]
        self.coefficient = (
            h.coefficient_field(spec.t_start, self.centers)
            if h.static_coefficient
            else None
        )

    def __call__(
        self,
        u: NDArray[np.float64],
        t: float,
        step_index: int,
        out: NDArray[np.float64],
    ) -> tuple[float, float]:
        """Write the step from ``u`` at time ``t`` into ``out``; returns
        (cfl margin, max |update|)."""
        spec, cfg = self.spec, self.cfg
        fwd, bwd, diff = self.fwd, self.bwd, self.diff
        jump, pnorm_sq = self.jump, self.pnorm_sq
        jump.fill(0.0)
        pnorm_sq.fill(0.0)
        for upper, lower, last, first, central in self.axes:
            # D+ = (u[j+1] - u[j]) / h and D- = (u[j] - u[j-1]) / h = D+[j-1]
            np.subtract(u[upper], u[lower], out=fwd[lower])
            fwd[last] = 0.0
            fwd /= spec.cell_width
            bwd[upper] = fwd[lower]
            bwd[first] = 0.0
            np.add(fwd, bwd, out=central)
            central *= 0.5
            np.subtract(fwd, bwd, out=diff)
            jump += diff
            np.abs(fwd, out=fwd)
            np.abs(bwd, out=bwd)
            np.maximum(fwd, bwd, out=fwd)
            np.square(fwd, out=fwd)
            pnorm_sq += fwd

        pnorm_max = float(np.sqrt(pnorm_sq.max()))
        sigma_est = max(self.h.dissipation_bound(pnorm_max), 0.0)
        if cfg.sigma_mode == "fixed":
            sigma_diss = float(cfg.sigma_bound)  # type: ignore[arg-type]
            if sigma_est > sigma_diss * (1.0 + 1e-9):
                raise SolverError(
                    f"step {step_index}: sampled |dH/dP|={sigma_est:.3g} exceeds the "
                    f"fixed dissipation bound {sigma_diss:.3g}",
                    step_index,
                )
        else:
            sigma_diss = max(SIGMA_INFLATION * sigma_est, _SIGMA_FLOOR)

        width = spec.cell_width
        ratio_mono = spec.dt * spec.dimension * sigma_diss / width
        if ratio_mono > 1.0 + 1e-9:
            raise SolverError(
                f"step {step_index}: dissipation {sigma_diss:.3g} breaks monotonicity "
                f"(dt*N*sigma/h = {ratio_mono:.3g} > 1)",
                step_index,
            )
        margin = cfg.cfl_safety - spec.dt * spec.dimension * sigma_est / width
        if margin < 0.0:
            raise SolverError(
                f"step {step_index}: CFL violation, sampled sigma {sigma_est:.3g} "
                f"needs dt <= {cfl_dt(spec, sigma_est, cfg.cfl_safety):.3g} "
                f"but grid has dt={spec.dt}",
                step_index,
            )

        hval = self.h.eval(t, self.centers, self.grad, coefficient=self.coefficient)
        # update = (-dt) * (H - (0.5 sigma) * jump), built in the jump buffer
        update = jump
        update *= 0.5 * sigma_diss
        np.subtract(hval, update, out=update)
        update *= -spec.dt
        np.add(u, update, out=out)
        if not np.isfinite(out, out=self.finite).all():
            raise SolverError(
                f"step {step_index}: non-finite values produced", step_index
            )
        return margin, float(np.abs(update, out=update).max())


def step(
    f: ScalarField,
    h,
    t_index: int,
    cfg: SolveConfig,
) -> NDArray[np.float64]:
    """Advance slice ``t_index`` of a field by one step; returns the new slice."""
    spec = f.spec
    if not 0 <= t_index < spec.n_slices - 1:
        raise ValueError(f"t_index {t_index} out of range for {spec.n_slices} slices")
    t = float(spec.times()[t_index])
    out = np.empty(spec.spatial_shape)
    _StepKernel(spec, h, cfg)(f.values[t_index], t, t_index, out)
    return out


def solve(
    spec: GridSpec,
    h,
    u0: Callable[[NDArray[np.float64]], NDArray[np.float64]] | NDArray[np.float64],
    cfg: SolveConfig | None = None,
) -> Trajectory:
    """March the initial data across the whole time lattice.

    ``u0`` is either an array on the spatial lattice or a callable applied to
    the cell-center coordinate array (shape ``(*spatial_shape, dimension)``).
    The returned field wraps the one trajectory array the march fills.
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
    values = np.empty((spec.n_slices, *spec.spatial_shape), dtype=np.float64)
    values[0] = init
    margins = np.empty(n_steps)
    updates = np.empty(n_steps)
    for i in range(n_steps):
        margins[i], updates[i] = kernel(values[i], float(times[i]), i, values[i + 1])
    return Trajectory(
        field=ScalarField(spec, values),
        cfl_margins=margins,
        max_updates=updates,
    )


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
    with outflow padding) and a forward time difference: row ``i`` of
    ``values`` lives at slice time ``t_i``, one row fewer than the input's.
    A row holds every cell's residual or, with ``reduce``, its min, max and
    max over the ball mask (the whole box without one).  Kinked cells can
    carry O(1) residuals of the harmless sign; mask them out in the full
    rows.  ``upper`` is a subsolution residual from the same pass, if any.
    """

    values: NDArray[np.float64]
    max_positive: float
    min_value: float
    ball_max: float
    upper: ResidualReport | None = None


def _residual(f, p: float, terms, ball, reduce: bool) -> list[ResidualReport]:
    """``(u[i+1] - u[i]) / dt + a |grad u[i]|^p - b`` for each ``(a, b)`` in
    ``terms`` from one ``|grad u|^p`` per block of slices, reduced per slice."""
    spec = f.spec
    if spec.n_slices < 2:
        raise ValueError("need at least two slices for a time difference")
    rows, cells = spec.n_slices - 1, math.prod(spec.spatial_shape)
    in_ball = None if ball is None else np.flatnonzero(ball)
    tables = [np.empty((rows, 3)) for _ in terms]
    outs = [None if reduce else np.empty((rows, *spec.spatial_shape)) for _ in terms]
    lo, hi = next(slice_blocks(0, rows, cells))  # the first block is the largest
    work = np.empty((3, hi - lo, *spec.spatial_shape))  # for every block in turn
    for lo, hi in slice_blocks(0, rows, cells):
        u = f.values[lo:hi]
        block = work[:, :hi - lo]
        grad_term = _central_gradient_norm(u, spec, block)
        grad_term **= p
        dudt = np.subtract(f.values[lo + 1:hi + 1], u, out=block[0])
        dudt /= spec.dt
        for (a_coef, b_const), table, out in zip(terms, tables, outs):
            res = np.multiply(a_coef, grad_term, out=block[1] if reduce else out[lo:hi])
            np.add(dudt, res, out=res)
            res -= b_const
            flat, part = res.reshape(hi - lo, cells), table[lo:hi]
            flat.min(axis=1, out=part[:, 0])
            flat.max(axis=1, out=part[:, 1])
            part[:, 2] = part[:, 1] if in_ball is None else np.take(
                flat, in_ball, axis=1).max(axis=1)
    return [ResidualReport(table if out is None else out,
                           float(max(table[:, 1].max(), 0.0)),
                           float(table[:, 0].min()), float(table[:, 2].max()))
            for table, out in zip(tables, outs)]


def residual_subsolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    b_const: float | None = None,
    *,
    ball: NDArray[np.bool_] | None = None,
    reduce: bool = False,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p - B <= 0``; defaults A=1/lam, B=lam.
    ``ball`` is a spatial mask; see ``ResidualReport`` for ``reduce``."""
    a = 1.0 / env.lam if a_coef is None else a_coef
    b = env.lam if b_const is None else b_const
    return _residual(f, env.p, [(a, b)], ball, reduce)[0]


def residual_supersolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    *,
    ball: NDArray[np.bool_] | None = None,
    reduce: bool = False,
    upper: tuple[float, float] | None = None,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p >= 0``; defaults A=lam.  ``upper``
    ``= (A', B')`` adds the residual of ``du/dt + A' |grad u|^p - B' <= 0``
    from the same ``|grad u|^p`` as the report's ``upper``."""
    a = env.lam if a_coef is None else a_coef
    terms = [(a, 0.0)] if upper is None else [(a, 0.0), upper]
    lower, *paired = _residual(f, env.p, terms, ball, reduce)
    return replace(lower, upper=paired[0]) if paired else lower
