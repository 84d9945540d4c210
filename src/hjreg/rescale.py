"""Zoom cascade: iterated recenter-and-rescale with decay bookkeeping.

A bounded field on ``[-4, 0] x box`` that solves both zoomed-in
inequalities contracts its oscillation by ``decay_ratio`` per zoom.  Each
zoom recenters the field by a small constant, blows up a parabolic window
by ``(zoom_ratio^zoom_time_exponent, zoom_ratio)``, and rescales values by
``4 / (4 - shrink_below)``; unwinding the recursion bounds the oscillation
of the original field over the shrinking windows ``Q_m`` by
``4 * decay_ratio^(m+1)``, which is a Holder modulus at the origin.

Two ways to advance a level: resampling the previous level (cheap, loses
resolution with every zoom) or re-solving the transformed equation on a
fresh working grid at full resolution.  The cascade records measured
oscillation against the theoretical bound per level; a regression on the
records estimates the realized Holder exponent, and ``theorem_check``
repeats the whole construction over a lattice of base points away from the
initial time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Cylinder,
    GridSpec,
    ScalarField,
    Window,
    one_cell_oscillation,
    slice_blocks,
    to_json,
)
from .hamiltonians import CoercivityEnvelope, GaugedField, TransformedHamiltonian
from .oscillation import (
    ConstantChain,
    oscillation_above_check,
    oscillation_below_check,
)
from .solver import (
    SolveConfig,
    SolverError,
    Trajectory,
    residual_supersolution,
    snap_dt,
    solve,
)

__all__ = [
    "CascadeError",
    "EnvelopeViolation",
    "HolderEstimate",
    "OscillationRecord",
    "RecenterError",
    "TheoremReport",
    "base_point_window",
    "gauge_to_window",
    "holder_estimate",
    "records_to_csv",
    "resample",
    "select_recenter",
    "shift_time",
    "theorem_check",
    "zoom_cascade",
    "zoom_step",
]

# Absolute floor for bound checks: the affine zoom map costs a couple of
# roundings, so fields sitting exactly on a certified bound can overshoot
# it by machine epsilon even when the algebra is an identity.
_TOL_FLOOR = 1e-12


class RecenterError(RuntimeError):
    """No admissible recentering constant; carries diagnostic verdicts."""

    def __init__(self, message: str, verdicts: dict | None = None) -> None:
        super().__init__(message)
        self.verdicts = verdicts or {}


class EnvelopeViolation(RuntimeError):
    """A zoom-level field escaped its certified bound; carries the witness."""

    def __init__(self, message: str, witness: dict) -> None:
        super().__init__(message)
        self.witness = witness


class CascadeError(RuntimeError):
    """A cascade step failed; carries the records completed before the abort."""

    def __init__(self, message: str, records: list["OscillationRecord"]) -> None:
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class OscillationRecord:
    """Measured versus certified oscillation over one zoom window.

    The level-``m`` window ``[-t_depth, 0] x B(0, radius)`` is given in the
    coordinates of the first cascade field: ``t_depth`` is
    ``(zoom_ratio^zoom_time_exponent)^m`` and ``radius`` is
    ``zoom_ratio^m / 2``.  ``recenter`` is the constant the cascade
    subtracted to advance past this level.
    """

    level: int
    radius: float
    t_depth: float
    osc_measured: float
    osc_bound: float
    recenter: float
    satisfied: bool
    tolerance: float


@dataclass(frozen=True)
class HolderEstimate:
    """Power-law fit of measured oscillation against window radius.

    ``alpha_est`` is the log-log slope and ``c_est`` the prefactor, so the
    fitted modulus is ``c_est * r^alpha_est``.  ``alpha_theory`` is the
    exponent the constant chain certifies; it is reported for positivity,
    never as a fit target, because the certified decay per zoom is far from
    sharp.  A degenerate estimate means fewer than three windows carried
    positive oscillation: the data is flat at the sampled scales.
    """

    alpha_est: float
    c_est: float
    fit_residual: float
    scale_range: tuple[float, float]
    points_used: int
    degenerate: bool
    alpha_theory: float


def shift_time(f: ScalarField, offset: float) -> ScalarField:
    """Relabel the time axis by a constant; values are shared, not copied."""
    spec = replace(
        f.spec, t_start=f.spec.t_start + offset, t_end=f.spec.t_end + offset
    )
    return ScalarField(spec=spec, values=f.values)


def resample(
    f: ScalarField | GaugedField,
    out_spec: GridSpec,
    time_scale: float = 1.0,
    time_shift: float = 0.0,
    space_scale: float = 1.0,
    space_shift: tuple[float, ...] | None = None,
    value_scale: float = 1.0,
    value_shift: float = 0.0,
) -> ScalarField:
    """Multilinear resample ``value_scale * f(affine(t, x)) + value_shift``.

    Queries outside the source's cell-center hull clamp to the hull, which
    continues the field constantly past its last center, matching the
    solver's outflow padding.  When the affine map sends output nodes onto
    source nodes the resample is exact.  A :class:`GaugedField` is gauged
    only on the slices the queries read.
    """
    spec = f.spec
    if spec.dimension != out_spec.dimension:
        raise ValueError(
            f"dimension mismatch: source {spec.dimension}, target {out_spec.dimension}"
        )
    shift = (0.0,) * spec.dimension if space_shift is None else space_shift
    axes = [time_shift + time_scale * out_spec.times()]
    axes += [s + space_scale * out_spec.axis_centers() for s in shift]
    return ScalarField(out_spec, value_scale * _clamped_sample(f, axes) + value_shift)


def _clamped_sample(f: ScalarField | GaugedField, axes: list) -> np.ndarray:
    """Multilinear values of ``f`` on the tensor grid of ``axes``: one 1-D
    query array per axis, time first, each clamped to the cell-center hull.
    Only the slices the time queries fall between, and one more on each
    side, are read (and gauged).  Each value rounds as scipy's per-point
    ``RegularGridInterpolator`` rounds it: corners summed from 0 in
    ``itertools.product`` order, each weight multiplied from 1 in axis order."""
    f = GaugedField(f) if isinstance(f, ScalarField) else f
    grids = [f.spec.times()] + [f.spec.axis_centers()] * f.spec.dimension
    queries = [np.clip(q, g[0], g[-1]) for g, q in zip(grids, axes)]
    # t lies in [times[k - 1], times[k]); a:b pads those rows by one each side
    k = np.searchsorted(grids[0], [queries[0].min(), queries[0].max()], "right")
    a, b = max(int(k[0]) - 2, 0), min(int(k[1]) + 2, len(grids[0]))
    grids[0], values, ends = grids[0][a:b], f.rows(a, b), []
    for axis, (g, q) in enumerate(zip(grids, queries)):
        i = np.clip(np.searchsorted(g, q, "right") - 1, 0, len(g) - 2)
        w = (q - g[i]) / (g[i + 1] - g[i])
        w = w.reshape([-1 if j == axis else 1 for j in range(len(grids))])
        ends.append(((i, 1 - w), (i + 1, w)))
    out = np.zeros(tuple(len(q) for q in queries))
    for corner in itertools.product(*ends):
        term = values[np.ix_(*(i for i, _ in corner))]
        term *= math.prod(w for _, w in corner)
        out += term
    return out


def _window_extrema(f: ScalarField, cyl: Cylinder) -> tuple[float, float]:
    win = Window(f.spec, cyl)
    return win.min(f.values), win.max(f.values)


def select_recenter(
    f: ScalarField, chain: ConstantChain, tolerance: float | None = None
) -> tuple[float, float]:
    """Recentering constant for the next zoom, from the window extrema.

    Takes the midpoint of the field's range over ``[-1, 0] x B(1/2)``,
    clamped to ``[-shrink_below/2, shrink_below/2]``, and returns it with
    the achieved sup of ``|f - d|``.  The improved-oscillation property
    guarantees an admissible ``d`` whenever one of the two one-sided
    improvements applies; if the achieved bound still exceeds
    ``2 - shrink_below/2`` the error carries both improvement verdicts for
    the window, evaluated on the time-relabeled field.
    """
    window = Cylinder(-1.0, 0.0, (0.0,) * f.spec.dimension, 0.5)
    lo, hi = _window_extrema(f, window)
    half_shrink = 0.5 * chain.shrink_below
    d = min(half_shrink, max(-half_shrink, 0.5 * (lo + hi)))
    achieved = max(hi - d, d - lo)
    tol = one_cell_oscillation(f, window) if tolerance is None else tolerance
    tol = max(tol, _TOL_FLOOR)
    if achieved > 2.0 - half_shrink + tol:
        verdicts: dict = {}
        try:
            centered = shift_time(f, -2.0 - f.spec.t_start)
            verdicts = {
                "above": oscillation_above_check(centered, chain).to_json_dict(),
                "below": oscillation_below_check(centered, chain).to_json_dict(),
            }
        except ValueError:
            pass
        raise RecenterError(
            f"window range [{lo}, {hi}] admits no recentering: best bound "
            f"{achieved} exceeds {2.0 - half_shrink} (tolerance {tol})",
            verdicts,
        )
    return d, achieved


def _check_envelope(f: ScalarField, chain: ConstantChain, tolerance: float) -> None:
    radii = np.linalg.norm(f.spec.centers(), axis=-1)
    bound = 2.0 + chain.barrier_slope * np.maximum(radii - 1.0, 0.0)
    margin = bound - np.abs(f.values)
    worst = float(margin.min())
    if worst < -tolerance:
        where = np.unravel_index(int(np.argmin(margin)), margin.shape)
        witness = {
            "slice": int(where[0]),
            "cell": tuple(int(i) for i in where[1:]),
            "time": float(f.spec.times()[where[0]]),
            "x": tuple(float(c) for c in f.spec.centers()[where[1:]]),
            "value": float(f.values[where]),
            "bound": float(bound[where[1:]]),
        }
        raise EnvelopeViolation(
            f"field exceeds its growth envelope by {-worst} "
            f"(tolerance {tolerance}) at t={witness['time']}, x={witness['x']}",
            witness,
        )


def _zoom_constants(
    f: ScalarField, chain: ConstantChain, tolerance: float | None
) -> tuple[float, float, float, float]:
    """Check ``f`` against its growth envelope and return the zoom's
    tolerance, time and space ratios and value scale."""
    tol = max(
        one_cell_oscillation(f) if tolerance is None else tolerance, _TOL_FLOOR
    )
    _check_envelope(f, chain, tol)
    a = chain.zoom_ratio**chain.zoom_time_exponent
    return tol, a, chain.zoom_ratio, 4.0 / (4.0 - chain.shrink_below)


def zoom_step(
    f: ScalarField,
    d: float,
    chain: ConstantChain,
    tolerance: float | None = None,
) -> ScalarField:
    """One zoom by resampling: ``(4/(4-shrink_below)) (f(a t, b x) - d)``.

    ``a = zoom_ratio^zoom_time_exponent`` and ``b = zoom_ratio``, so the
    output reads the input strictly inside its own domain and lives on the
    same grid.  Before mapping, the input must sit under the growth
    envelope ``2 + barrier_slope * (|x| - 1)_+``; after mapping, the output
    must be bounded by 2 on the window that certifies the next level.
    Both checks raise ``EnvelopeViolation`` with a witness cell.
    """
    spec = f.spec
    tol, a, b, scale = _zoom_constants(f, chain, tolerance)
    out = resample(
        f,
        spec,
        time_scale=a,
        space_scale=b,
        value_scale=scale,
        value_shift=-scale * d,
    )
    t_lo = max(spec.t_start, -1.0 / a)
    r_check = min(0.5 / b, spec.half_width * math.sqrt(spec.dimension))
    win = Window(spec, Cylinder(t_lo, 0.0, (0.0,) * spec.dimension, r_check))
    idx, mask = win.slices, win.mask
    sup = max(float(np.abs(block).max()) for block in win.rows(out.values))
    if sup > 2.0 + tol:
        flat = [
            (float(np.abs(out.values[i][mask]).max()), int(i)) for i in idx
        ]
        bad_slice = max(flat)[1]
        local = np.abs(out.values[bad_slice]) * mask
        where = np.unravel_index(int(np.argmax(local)), local.shape)
        witness = {
            "slice": bad_slice,
            "cell": tuple(int(i) for i in where),
            "time": float(spec.times()[bad_slice]),
            "x": tuple(float(c) for c in spec.centers()[where]),
            "value": float(out.values[bad_slice][where]),
            "bound": 2.0,
        }
        raise EnvelopeViolation(
            f"zoomed field reaches {sup} > 2 (tolerance {tol}) inside the "
            f"certified window [{t_lo}, 0] x B({r_check})",
            witness,
        )
    return out


def _zoom_resolve(
    f: ScalarField,
    d: float,
    chain: ConstantChain,
    hamiltonian,
    cfg: SolveConfig,
    tolerance: float | None = None,
) -> tuple[ScalarField, TransformedHamiltonian]:
    """One zoom by re-solving the transformed equation at full resolution.

    The next level's equation has Hamiltonian ``s a H(a t, b x, P/(s b))``
    with ``s = 4/(4 - shrink_below)``; only the initial slice is
    interpolated from the previous level, at the pulled-back time ``-4 a``.
    The time step is chosen from the initial slice's steepness with a
    factor-4 margin and halved on any solver abort.
    """
    spec = f.spec
    tol, a, b, scale = _zoom_constants(f, chain, tolerance)
    transformed = TransformedHamiltonian(
        base=hamiltonian,
        out_scale=scale * a,
        t_scale=a,
        x_scale=b,
        grad_scale=1.0 / (scale * b),
    )
    axes = [np.array([-4.0 * a])] + [b * spec.axis_centers()] * spec.dimension
    init = scale * (_clamped_sample(f, axes)[0] - d)

    h = spec.cell_width
    steepness = 0.0
    for axis in range(spec.dimension):
        diffs = np.abs(np.diff(init, axis=axis)) / h
        if diffs.size:
            steepness = max(steepness, float(diffs.max()))
    sigma = max(transformed.dissipation_bound(max(steepness, 1e-9)), 1e-9)
    dt = snap_dt(-4.0, 0.0, min(cfg.cfl_safety * h / (spec.dimension * sigma * 4.0), 4.0))
    last_error: SolverError | None = None
    for _ in range(8):
        out_spec = replace(spec, t_start=-4.0, t_end=0.0, dt=dt)
        try:
            traj = solve(out_spec, transformed, init, cfg)
            return traj.field, transformed
        except SolverError as err:
            last_error = err
            dt /= 2.0
    raise last_error  # type: ignore[misc]


def zoom_cascade(
    f: ScalarField,
    chain: ConstantChain,
    levels: int,
    mode: str = "resolve",
    hamiltonian=None,
    solve_config: SolveConfig | None = None,
) -> list[OscillationRecord]:
    """Run ``levels`` zooms and record measured versus certified decay.

    Record ``m`` measures the oscillation of the original field over the
    window ``Q_m`` through the cascade bookkeeping: the window pulls back
    to ``[-1, 0] x B(1/2)`` on level ``m``'s field, and every zoom scales
    values by exactly ``1/decay_ratio``, so the original oscillation is
    ``decay_ratio^m`` times the measured window oscillation at level ``m``.
    The certified bound is ``4 decay_ratio^(m+1)``.

    ``mode="resolve"`` advances levels by re-solving the transformed
    equation (requires ``hamiltonian``, the one the input field solves);
    ``mode="interpolate"`` just resamples, losing resolution per level.  A
    step failure raises ``CascadeError`` carrying the completed records.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    if mode not in ("resolve", "interpolate"):
        raise ValueError(f"mode must be 'resolve' or 'interpolate', got {mode!r}")
    if mode == "resolve" and hamiltonian is None:
        raise ValueError("re-solve mode needs the Hamiltonian the field solves")
    spec = f.spec
    sup = float(np.abs(f.values).max())
    box_tol = max(one_cell_oscillation(f), _TOL_FLOOR)
    if sup > 2.0 + box_tol:
        raise ValueError(
            f"cascade input must be bounded by 2 on its whole grid, found {sup}"
        )
    theta = chain.decay_ratio
    a = chain.zoom_ratio**chain.zoom_time_exponent
    cfg = solve_config or SolveConfig()
    records: list[OscillationRecord] = []
    u = f
    ham = hamiltonian
    center = (0.0,) * spec.dimension
    for m in range(levels + 1):
        try:
            window = Cylinder(-1.0, 0.0, center, 0.5)
            lo, hi = _window_extrema(u, window)
            window_tol = one_cell_oscillation(u, window)
            d, _ = select_recenter(u, chain, tolerance=window_tol)
            factor = theta**m
            osc = factor * (hi - lo)
            bound = 4.0 * theta ** (m + 1)
            tol = factor * window_tol
            records.append(
                OscillationRecord(
                    level=m,
                    radius=0.5 * chain.zoom_ratio**m,
                    t_depth=a**m,
                    osc_measured=osc,
                    osc_bound=bound,
                    recenter=d,
                    satisfied=osc <= bound + tol,
                    tolerance=tol,
                )
            )
            if m < levels:
                if mode == "interpolate":
                    u = zoom_step(u, d, chain)
                else:
                    u, ham = _zoom_resolve(u, d, chain, ham, cfg)
        except (RecenterError, EnvelopeViolation, SolverError, ValueError) as err:
            raise CascadeError(
                f"cascade aborted at level {m}: {err}", records
            ) from err
    return records


def records_to_csv(records: list[OscillationRecord]) -> str:
    """Cascade records as CSV with the cascade's canonical column order."""
    lines = ["m,radius,t_depth,osc_measured,osc_bound,d_m,satisfied"]
    for r in records:
        lines.append(
            f"{r.level},{r.radius:.17g},{r.t_depth:.17g},"
            f"{r.osc_measured:.17g},{r.osc_bound:.17g},{r.recenter:.17g},"
            f"{str(r.satisfied).lower()}"
        )
    return "\n".join(lines) + "\n"


def holder_estimate(
    records: list[OscillationRecord], chain: ConstantChain
) -> HolderEstimate:
    """Least-squares power law through the positive-oscillation records.

    Fits ``log(osc)`` against ``log(radius)``; the slope is the realized
    Holder exponent at the sampled scales and the intercept exponentiates
    to the modulus prefactor.  Fewer than three positive records yield the
    degenerate estimate (flat data, exponent reported as infinite); a
    record only counts when its oscillation clears its own resolution
    floor, so interpolation rounding noise never masquerades as decay.
    """
    pairs = [
        (r.radius, r.osc_measured)
        for r in records
        if r.osc_measured > max(r.tolerance, _TOL_FLOOR)
    ]
    theory = chain.holder_exponent
    if len(pairs) < 3:
        bound = (min(p[0] for p in pairs), max(p[0] for p in pairs)) if pairs else (
            0.0,
            0.0,
        )
        return HolderEstimate(
            alpha_est=math.inf,
            c_est=0.0,
            fit_residual=0.0,
            scale_range=bound,
            points_used=len(pairs),
            degenerate=True,
            alpha_theory=theory,
        )
    radii = np.array([p[0] for p in pairs])
    oscs = np.array([p[1] for p in pairs])
    logs_r = np.log(radii)
    logs_o = np.log(oscs)
    slope, intercept = np.polyfit(logs_r, logs_o, 1)
    fitted = slope * logs_r + intercept
    residual = float(np.sqrt(np.mean((logs_o - fitted) ** 2)))
    return HolderEstimate(
        alpha_est=float(slope),
        c_est=float(np.exp(intercept)),
        fit_residual=residual,
        scale_range=(float(radii.min()), float(radii.max())),
        points_used=len(pairs),
        degenerate=False,
        alpha_theory=theory,
    )


def gauge_to_window(
    field: ScalarField, env: CoercivityEnvelope
) -> tuple[GaugedField, bool, float]:
    """Prepare a solved field for base-point zooming.

    Gauges it by ``lam * t`` when the raw lower-inequality residual fails
    (any solution inside the envelope then satisfies both one-sided
    inequalities at the doubled constant) and reports the value factor
    that caps the gauged field at 2.  The residual is checked a
    ``slice_blocks`` block of rows at a time and the check stops at the
    first block whose minimum is below ``-residual_tol``; a field that
    never fails is scanned whole.  Returns ``(gauged_field, gauged,
    cap_factor)``: ``field`` with rate ``lam`` or 0, never a shifted copy.
    """
    spec = field.spec
    u, times = field.values.reshape(spec.n_slices, -1), spec.times()
    # a block's rows lo..hi-1 difference against row hi, so its slab ends there
    gauged = any(
        residual_supersolution(ScalarField(
            replace(spec, t_start=times[lo], t_end=times[hi]), field.values[lo:hi + 1]
        ), env).min_value < -spec.residual_tol
        for lo, hi in slice_blocks(0, spec.n_slices - 1, u.shape[1])
    )
    out = GaugedField(field, env.lam if gauged else 0.0)
    # rounding is monotone: a slice's gauged max (min) is its max (min) gauged
    gauge = times * out.rate
    sup = float(max((u.max(axis=1) + gauge).max(), -(u.min(axis=1) + gauge).min()))
    gamma = 1.0 if sup <= 2.0 else 2.0 / sup
    return out, gauged, gamma


def base_point_window(
    field: ScalarField | GaugedField,
    chain: ConstantChain,
    t0: float,
    x0,
    gamma: float,
    working: GridSpec,
    hamiltonian=None,
):
    """Affine-map a neighborhood of ``(t0, x0)`` onto the cascade window.

    ``field`` must already carry any gauge shift (as a :class:`GaugedField`
    from ``gauge_to_window``) and satisfy ``gamma * |field| <= 2``.  The
    map composes the cap factor, the normalization ``w(t, x) = gamma *
    field(t0 + tau t, x0 + rho x)`` with ``(gamma rho)^p = gamma tau <= 1``
    (so both one-sided inequalities survive with unchanged constants), and
    the chain's first-stage zoom into a single resample onto ``working``.
    ``hamiltonian``, when given, must be the one ``field`` solves (gauge
    constant included) and comes back reparametrized to the one the window
    solves.  Returns ``(window, window_hamiltonian, tau, rho)``.
    """
    spec = field.spec
    x0_arr = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    p = chain.p
    eps = chain.prezoom_scale
    eps_time = eps**chain.prezoom_time_exponent
    tau = min((t0 - spec.t_start) / 4.0, 1.0 / gamma)
    if tau <= 0.0:
        raise ValueError(f"no time room left of t0={t0} (field starts at "
                         f"{spec.t_start})")
    room = spec.half_width - float(np.max(np.abs(x0_arr))) - 2.0 * spec.cell_width
    if room <= 0.0:
        raise ValueError(
            f"base point {x0_arr.tolist()} sits within two cells of the boundary"
        )
    tau = min(tau, gamma ** (p - 1.0) * (room / working.half_width) ** p)
    rho = (gamma * tau) ** (1.0 / p) / gamma
    shift = tuple(float(c) for c in x0_arr)
    w = resample(
        field,
        working,
        time_scale=tau * eps_time,
        time_shift=float(t0),
        space_scale=rho * eps,
        space_shift=shift,
        value_scale=gamma,
    )
    h_w = None
    if hamiltonian is not None:
        h_w = TransformedHamiltonian(
            base=hamiltonian,
            out_scale=gamma * tau * eps_time,
            t_scale=tau * eps_time,
            x_scale=rho * eps,
            grad_scale=1.0 / (gamma * rho * eps),
            t_shift=float(t0),
            x_shift=shift,
        )
    return w, h_w, tau, rho


def _base_point_cascades(
    field: ScalarField,
    chain: ConstantChain,
    env: CoercivityEnvelope,
    points,
    levels: int,
    mode: str,
    hamiltonian,
    working_cells: int,
    working_slices: int,
    solve_config: SolveConfig | None,
) -> tuple[bool, float, list[tuple]]:
    """Gauge ``field`` once, then window and cascade it at each ``(t0, x0)``.

    The chain must be built for the field's dimension at twice the
    envelope constant.  ``hamiltonian``, when given, is the one ``field``
    solves; the gauge constant is added to it.  Each window lives on the
    working grid ``[-4, 0] x box(1.25)``.  Returns ``(gauged, gamma, runs)``
    with one ``(tau, rho, records, aborted)`` per point, where ``aborted``
    is the message of a cascade that stopped early (its completed records
    are kept), else ``None``.
    """
    spec = field.spec
    if chain.dimension != spec.dimension:
        raise ValueError(
            f"chain is for dimension {chain.dimension}, field has {spec.dimension}"
        )
    if abs(chain.lam - 2.0 * env.lam) > 1e-9 * chain.lam:
        raise ValueError(
            f"chain was built at lam={chain.lam}; the gauge bookkeeping needs "
            f"exactly twice the envelope constant {env.lam}"
        )
    u, gauged, gamma = gauge_to_window(field, env)
    if hamiltonian is not None and gauged:
        hamiltonian = TransformedHamiltonian(base=hamiltonian, const=-env.lam)
    working = GridSpec(
        dimension=spec.dimension,
        half_width=1.25,
        cells_per_axis=working_cells,
        t_start=-4.0,
        t_end=0.0,
        dt=4.0 / working_slices,
    )
    runs = []
    for t0, x0 in points:
        w, h_w, tau, rho = base_point_window(
            u, chain, t0, x0, gamma, working, hamiltonian
        )
        try:
            records = zoom_cascade(
                w, chain, levels, mode=mode, hamiltonian=h_w,
                solve_config=solve_config,
            )
            aborted = None
        except CascadeError as err:
            records, aborted = err.records, str(err)
        runs.append((tau, rho, records, aborted))
    return gauged, gamma, runs


@dataclass(frozen=True)
class TheoremReport:
    """Holder behavior of a trajectory across a lattice of base points.

    Each entry normalizes the (possibly gauged) field around one base
    point to the cascade's standing hypotheses, runs the cascade, and fits
    an exponent.  ``alpha_min`` is the smallest fitted exponent over
    non-degenerate points; ``max_quotient`` is the largest measured
    oscillation divided by ``radius^alpha_min``, a modulus prefactor for
    the whole sampled region.  Degenerate points (flat at every sampled
    scale) contribute no quotient.
    """

    delta_time: float
    gauged: bool
    alpha_theory: float
    entries: tuple[dict, ...]
    alpha_min: float
    max_quotient: float
    n_degenerate: int
    n_unsatisfied: int


def theorem_check(
    field: ScalarField | Trajectory,
    delta_time: float,
    chain: ConstantChain,
    env: CoercivityEnvelope,
    points_per_axis: int = 5,
    levels: int = 4,
    mode: str = "interpolate",
    hamiltonian=None,
    working_cells: int = 40,
    working_slices: int = 64,
    solve_config: SolveConfig | None = None,
) -> TheoremReport:
    """Estimate interior Holder regularity of a solved field.

    The field (typically a solver trajectory on ``[0, T] x box``) is
    shifted by ``lam * t`` when its raw lower-inequality residual fails
    on some block of slices (``gauge_to_window`` stops at the first),
    which certifies the one-sided inequalities for any Hamiltonian inside
    the coercivity envelope at the doubled constant; the chain must be
    built at that doubled constant.  Around every base point ``(t0, x0)``
    of a lattice with ``t0 >= delta_time``, the field is normalized by
    ``w(t, x) = g * u(t0 + tau t, x0 + rho x)`` with ``g`` capping ``|w|``
    at 2 and ``(g rho)^p = g tau <= 1`` preserving both inequalities, then
    the first-stage zoom and the cascade run on a working grid.
    """
    if isinstance(field, Trajectory):
        field = field.field
    spec = field.spec
    if not spec.t_start < delta_time <= spec.t_end:
        raise ValueError(
            f"delta_time {delta_time} outside the field's time window "
            f"({spec.t_start}, {spec.t_end}]"
        )
    if points_per_axis < 1:
        raise ValueError("need at least one base point per axis")

    t_points = np.linspace(delta_time, spec.t_end, points_per_axis)
    axis_pts = np.linspace(
        -0.5 * spec.half_width, 0.5 * spec.half_width, points_per_axis
    )
    grids = np.meshgrid(*([axis_pts] * spec.dimension), indexing="ij")
    x_points = np.stack([g.ravel() for g in grids], axis=-1)
    points = [(float(t0), x0) for t0 in t_points for x0 in x_points]
    gauged, gamma, runs = _base_point_cascades(
        field, chain, env, points, levels, mode, hamiltonian,
        working_cells, working_slices, solve_config,
    )

    entries: list[dict] = []
    all_pairs: list[tuple[float, float]] = []
    finite: list[float] = []
    n_unsatisfied = 0
    for (t0, x0), (tau, rho, records, _) in zip(points, runs):
        est = holder_estimate(records, chain)
        if not est.degenerate:
            finite.append(est.alpha_est)
            all_pairs.extend(
                (r.radius, r.osc_measured)
                for r in records
                if r.osc_measured > max(r.tolerance, _TOL_FLOOR)
            )
        n_bad = sum(1 for r in records if not r.satisfied)
        n_unsatisfied += n_bad
        entries.append(
            {
                "t0": t0,
                "x0": [float(c) for c in x0],
                "gamma": gamma,
                "tau": tau,
                "rho": rho,
                "n_records": len(records),
                "n_unsatisfied": n_bad,
                **to_json(est),
            }
        )
    alpha_min = min(finite) if finite else math.inf
    if finite and all_pairs:
        max_quotient = max(osc / radius**alpha_min for radius, osc in all_pairs)
    else:
        max_quotient = 0.0
    return TheoremReport(
        delta_time=delta_time,
        gauged=gauged,
        alpha_theory=chain.holder_exponent,
        entries=tuple(entries),
        alpha_min=alpha_min,
        max_quotient=max_quotient,
        n_degenerate=len(entries) - len(finite),
        n_unsatisfied=n_unsatisfied,
    )
