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

evaluated by lattice minimization with local refinement.  It shares no code
with the marching scheme, so the two sides cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import GridSpec, ScalarField, slice_blocks
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
        sigma_bound: a-priori bound on ``|dH/dP|``; required in fixed mode,
            used only for planning in adaptive mode.
        max_steps: optional hard cap on the number of steps.
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
        if self.sigma_mode == "fixed" and not self.sigma_bound:
            raise ValueError("fixed sigma_mode requires sigma_bound")


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
    u: NDArray[np.float64], spec: GridSpec
) -> NDArray[np.float64]:
    """``|grad u|`` with the solver's centered gradient ``(D+ + D-) / 2``,
    over the trailing spatial axes of ``u`` (leading axes hold a block of
    slices).

    With outflow padding ``D+`` is the forward difference and 0 at the
    upper edge, ``D-`` the backward difference and 0 at the lower edge, so
    ``D+ + D-`` is formed from one ``np.diff`` per axis; the components are
    squared and summed in axis order, as ``np.linalg.norm`` sums them.
    """
    lead = u.ndim - spec.dimension
    sq = None
    for axis in range(lead, u.ndim):
        d = np.diff(u, axis=axis)
        d /= spec.cell_width
        comp = np.empty_like(u)
        np.add(d[_cut(axis, 1, None)], d[_cut(axis, None, -1)],
               out=comp[_cut(axis, 1, -1)])
        # At each edge the missing one-sided difference is exactly 0.0.
        comp[_cut(axis, 0, 1)] = d[_cut(axis, 0, 1)] + 0.0
        comp[_cut(axis, -1, None)] = 0.0 + d[_cut(axis, -1, None)]
        del d  # keeps at most three block-sized arrays alive
        comp *= 0.5
        comp *= comp
        if sq is None:
            sq = comp
        else:
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
    value_tol: float = 1e-6,
    search_radius: float | None = None,
) -> float:
    """Inf-convolution value for ``H = |P|^p`` at one space-time point.

    Minimizes ``u0(y) + t * c_p * (|x - y|/t)^(p/(p-1))`` over a lattice of
    candidates that is recentered and refined around the running minimizer
    until the value is stable to ``value_tol``.  ``u0`` must accept an array
    of points with shape ``(M, N)``.
    """
    if p <= 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    dim = x_arr.size
    if t == 0.0:
        return float(np.asarray(u0(x_arr[None, :]))[0])

    pp = p / (p - 1.0)
    c_p = (p - 1.0) * p ** (-pp)

    def objective(pts: NDArray[np.float64]) -> NDArray[np.float64]:
        dist = np.linalg.norm(pts - x_arr[None, :], axis=-1)
        return np.asarray(u0(pts), dtype=np.float64) + t * c_p * (dist / t) ** pp

    value_here = float(objective(x_arr[None, :])[0])
    if search_radius is None:
        radius = max(1.0, float(np.abs(x_arr).max()))
        for _ in range(64):
            probe = _lattice(x_arr, radius, 9 if dim == 1 else 7, dim)
            best_probe = float(objective(probe).min())
            penalty_at_r = t * c_p * (radius / t) ** pp
            if penalty_at_r >= value_here - best_probe + 1.0:
                break
            radius *= 2.0
    else:
        radius = search_radius

    center = x_arr.copy()
    spacing = radius
    n_side = 17 if dim == 1 else 7
    best_val = value_here
    for _ in range(200):
        pts = _lattice(center, spacing, n_side, dim)
        vals = objective(pts)
        k = int(np.argmin(vals))
        improved = float(vals[k])
        new_center = pts[k]
        done = abs(best_val - improved) < value_tol and spacing < max(
            value_tol, 1e-9 * max(1.0, radius)
        )
        if improved < best_val:
            best_val = improved
        center = new_center
        spacing *= 0.5
        if done:
            break
    return best_val


def _lattice(
    center: NDArray[np.float64], spacing: float, n_side: int, dim: int
) -> NDArray[np.float64]:
    offs = np.linspace(-spacing, spacing, n_side)
    grids = np.meshgrid(*([offs] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    return center[None, :] + pts


@dataclass(frozen=True)
class ResidualReport:
    """Discrete residual of a one-sided Hamilton-Jacobi inequality.

    The residual uses the solver's own gradient (centered one-sided average
    with outflow padding) and a forward time difference, so entry ``i`` of
    ``values`` lives at slice time ``t_i`` of the input grid and there is one
    entry fewer than input slices.  Kinked cells of the input can carry O(1)
    residuals of the harmless sign; mask them out via ``values`` when that
    matters.
    """

    spec: GridSpec
    values: NDArray[np.float64]
    max_positive: float
    min_value: float


def _residual(
    f: ScalarField, p: float, a_coef: float, b_const: float
) -> ResidualReport:
    spec = f.spec
    if spec.n_slices < 2:
        raise ValueError("need at least two slices for a time difference")
    out = np.empty((spec.n_slices - 1, *spec.spatial_shape))
    cells = math.prod(spec.spatial_shape)
    for lo, hi in slice_blocks(0, spec.n_slices - 1, cells):
        # (u[i+1] - u[i]) / dt + a |grad u[i]|^p - b, with the block's
        # temporaries updated in place.
        u = f.values[lo:hi]
        grad_term = _central_gradient_norm(u, spec)
        grad_term **= p
        grad_term *= a_coef
        res = out[lo:hi]
        np.subtract(f.values[lo + 1:hi + 1], u, out=res)
        res /= spec.dt
        res += grad_term
        res -= b_const
        del grad_term  # not alive while the next block's is built
    return ResidualReport(
        spec=spec,
        values=out,
        max_positive=float(max(out.max(), 0.0)),
        min_value=float(out.min()),
    )


def residual_subsolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
    b_const: float | None = None,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p - B <= 0``; defaults A=1/lam, B=lam."""
    a = 1.0 / env.lam if a_coef is None else a_coef
    b = env.lam if b_const is None else b_const
    return _residual(f, env.p, a, b)


def residual_supersolution(
    f: ScalarField,
    env: CoercivityEnvelope,
    a_coef: float | None = None,
) -> ResidualReport:
    """Residual of ``du/dt + A |grad u|^p >= 0``; defaults A=lam."""
    a = env.lam if a_coef is None else a_coef
    return _residual(f, env.p, a, 0.0)
