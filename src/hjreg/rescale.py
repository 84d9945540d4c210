"""Zoom cascade: iterated recenter-and-rescale with decay bookkeeping.

A bounded field on ``[-4, 0] x box`` that solves both zoomed-in
inequalities contracts its oscillation by ``decay_ratio`` per zoom.  Each
zoom recenters the field by a small constant, blows up a parabolic window
by ``(zoom_ratio^zoom_time_exponent, zoom_ratio)``, and rescales values by
``4 / (4 - shrink_below)``; unwinding the recursion bounds the oscillation
of the original field over the shrinking windows ``Q_m`` by
``4 * decay_ratio^(m+1)``, which is a Holder modulus at the origin.

Each level after the first re-solves the rescaled equation on a fresh
working grid at full resolution, from one slice sampled multilinearly from
the previous level.  The cascade records measured oscillation against the
theoretical bound per level; a regression on the records estimates the
realized Holder exponent, and ``theorem_check`` repeats the whole
construction over a lattice of base points away from the initial time.
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
    SliceRead,
    SliceScan,
    SliceTables,
    Window,
    to_json,
)
from .hamiltonians import CoercivityEnvelope, GaugedField, TransformedHamiltonian
from .oscillation import ConstantChain, growth_envelope
from .solver import (
    ResidualReport,
    ResidualRows,
    ResidualTerm,
    SolveConfig,
    SolverError,
    snap_dt,
    solve,
)

__all__ = [
    "GAUGE_READS",
    "ZOOM_WINDOW",
    "HolderEstimate",
    "OscillationRecord",
    "TheoremReport",
    "base_point_room",
    "base_point_slices",
    "base_point_window",
    "base_times",
    "cascade_status",
    "gauge_term",
    "gauge_to_window",
    "holder_estimate",
    "records_to_csv",
    "resample",
    "select_recenter",
    "theorem_check",
    "zoom_cascade",
]

# Absolute floor for bound checks: the affine zoom map costs a couple of
# roundings, so fields sitting exactly on a certified bound can overshoot
# it by machine epsilon even when the algebra is an identity.
_TOL_FLOOR = 1e-12
# The zoom window ``[-1, 0] x B(1/2)``: each cascade level's field is
# measured and recentered on it, and ``Q_m`` pulls back to it.
ZOOM_WINDOW = Cylinder(-1.0, 0.0, 0.5)


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


def resample(
    f: ScalarField | GaugedField,
    out_spec: GridSpec,
    time_scale: float = 1.0,
    time_shift: float = 0.0,
    space_scale: float = 1.0,
    space_shift: tuple[float, ...] | None = None,
    value_scale: float = 1.0,
) -> ScalarField:
    """Multilinear resample ``value_scale * f(affine(t, x))``.

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
    return ScalarField(out_spec, value_scale * _clamped_sample(f, axes))


def _clamped_sample(f: ScalarField | GaugedField, axes: list) -> np.ndarray:
    """Multilinear values of ``f`` on the tensor grid of ``axes``: one 1-D
    query array per axis, time first, each clamped to the cell-center hull.
    Only the slices ``Window.slice_range`` selects for the time queries,
    padded by two on each side, are read (and gauged).  Each value rounds
    as scipy's per-point ``RegularGridInterpolator`` rounds it: corners
    summed from 0 in ``itertools.product`` order, each weight multiplied
    from 1 in axis order."""
    grids = [f.spec.times()] + [f.spec.axis_centers()] * f.spec.dimension
    queries = [np.clip(q, g[0], g[-1]) for g, q in zip(grids, axes)]
    read = Window.slice_range(f.spec, queries[0].min(), queries[0].max(), pad=2)
    a, b = read.start, read.stop
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


def select_recenter(
    lo: float, hi: float, chain: ConstantChain, tolerance: float
) -> tuple[float, float]:
    """Recentering constant for the next zoom, from the extrema ``lo`` and
    ``hi`` of the field over :data:`ZOOM_WINDOW`.

    Takes the midpoint of that range, clamped to ``[-shrink_below/2,
    shrink_below/2]``, and returns it with the achieved sup of ``|f - d|``.
    The improved-oscillation property guarantees an admissible ``d``
    whenever one of the two one-sided improvements applies; a
    ``ValueError`` reports an achieved bound above ``2 - shrink_below/2``
    plus the tolerance (at least ``_TOL_FLOOR``).
    """
    half_shrink = 0.5 * chain.shrink_below
    d = min(half_shrink, max(-half_shrink, 0.5 * (lo + hi)))
    achieved = max(hi - d, d - lo)
    tol = max(tolerance, _TOL_FLOOR)
    if achieved > 2.0 - half_shrink + tol:
        raise ValueError(
            f"window range [{lo}, {hi}] admits no recentering: best bound "
            f"{achieved} exceeds {2.0 - half_shrink} (tolerance {tol})"
        )
    return d, achieved


def _level_reads(chain: ConstantChain) -> list[SliceRead]:
    """The tables a cascade level reads of its field: the extrema and jumps
    of the box and of :data:`ZOOM_WINDOW`, and ``growth_envelope - |f|`` as
    the smaller of ``growth_envelope + f`` and ``+ (-f)``, each exact."""
    env = (growth_envelope, chain)
    return [*(SliceRead(kind, radius) for radius in (None, ZOOM_WINDOW.radius)
              for kind in ("max", "min", "jumps")),
            *(SliceRead("plus_min", None, env, negated) for negated in (False, True))]


def _zoom_resolve(
    f: ScalarField,
    tables: SliceTables,
    d: float,
    chain: ConstantChain,
    hamiltonian,
    cfg: SolveConfig,
) -> tuple[ScalarField, SliceTables, TransformedHamiltonian]:
    """One zoom by re-solving the transformed equation at full resolution.

    The next level's equation has Hamiltonian ``s a H(a t, b x, P/(s b))``
    with ``s = 4/(4 - shrink_below)``; only the initial slice
    ``s (f(-4 a, b x) - d)`` is sampled from the previous level.  Before
    mapping, ``f`` must sit under the growth envelope ``2 + barrier_slope
    * (|x| - 1)_+``, up to its one-cell oscillation, as ``tables`` (its
    :func:`_level_reads`) show, else a ``ValueError``.  The time step is
    chosen from the initial slice's steepness with a factor-4 margin and
    halved on a solver abort, up to 8 solves; a grid refused for needing
    more than ``max_steps`` steps is not retried, since halving the step
    doubles the steps it needs.  The re-solve keeps only the slices that
    the next level samples and feeds its march to one ``SliceScan`` of that
    level's tables.  Returns ``(field, tables, transformed)``.
    """
    spec, env = f.spec, (growth_envelope, chain)
    margin = np.minimum(*(tables.table("plus_min", None, env, negated=negated)
                          for negated in (False, True)))
    tolerance = max(tables.one_cell(), _TOL_FLOOR)
    if margin.min() < -tolerance:
        t = float(spec.times()[np.argmin(margin)])
        raise ValueError(f"field exceeds its growth envelope by {-float(margin.min())} "
                         f"(tolerance {tolerance}) at t={t}")
    a = chain.zoom_ratio**chain.zoom_time_exponent
    b = chain.zoom_ratio
    scale = 4.0 / (4.0 - chain.shrink_below)
    transformed = TransformedHamiltonian(base=hamiltonian, out_scale=scale * a, t_scale=a,
                                         x_scale=b, grad_scale=1.0 / (scale * b))
    axes = [np.array([-4.0 * a])] + [b * spec.axis_centers()] * spec.dimension
    init = scale * (_clamped_sample(f, axes)[0] - d)

    # division is monotone: the largest |jump| / h is the largest |jump| over h
    h = spec.cell_width
    steepness = max(0.0, *(float(np.abs(np.diff(init, axis=axis)).max())
                           for axis in range(spec.dimension))) / h
    sigma = max(transformed.dissipation_bound(max(steepness, 1e-9)), 1e-9)
    dt = snap_dt(-4.0, 0.0, min(cfg.cfl_safety * h / (spec.dimension * sigma * 4.0), 4.0))
    for attempt in range(8):
        out_spec = replace(spec, t_start=-4.0, t_end=0.0, dt=dt)
        # the range _clamped_sample reads at -4a, inside the grid as a < 1/4
        keep = [Window.slice_range(out_spec, -4.0 * a, -4.0 * a, pad=2)]
        out = SliceTables(out_spec, _level_reads(chain))
        try:
            traj = solve(out_spec, transformed, init, cfg, keep, SliceScan(out_spec, [out]))
            return traj.field, out, transformed
        except SolverError:
            refused = cfg.max_steps is not None and out_spec.n_steps > cfg.max_steps
            if refused or attempt == 7:
                raise
            dt /= 2.0


def zoom_cascade(
    f: ScalarField,
    chain: ConstantChain,
    levels: int,
    hamiltonian,
    solve_config: SolveConfig | None = None,
) -> tuple[list[OscillationRecord], str | None]:
    """Run ``levels`` zooms and record measured versus certified decay.

    Record ``m`` measures the oscillation of the original field over the
    window ``Q_m`` through the cascade bookkeeping: the window pulls back
    to :data:`ZOOM_WINDOW` on level ``m``'s field, and every zoom scales
    values by exactly ``1/decay_ratio``, so the original oscillation is
    ``decay_ratio^m`` times the measured window oscillation at level ``m``.
    The certified bound is ``4 decay_ratio^(m+1)``.

    Every level reads its field through one ``SliceTables`` of
    :func:`_level_reads`: level 0 at once (``f`` holds every slice), each
    later level from the march of its re-solve of the transformed equation
    of ``hamiltonian``, the one the input field solves.  Returns
    ``(records, aborted)``: ``aborted`` is ``None``, or the message
    ``"cascade aborted at level m: ..."`` of the level that failed (a
    solver abort, a broken hypothesis, or an overflow of a deep level's
    scales), and ``records`` then holds every record taken before it.
    """
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    tables = SliceTables.of(f, _level_reads(chain))
    sup = float(max(tables.table("max", None).max(), -tables.table("min", None).min()))
    if sup > 2.0 + max(tables.one_cell(), _TOL_FLOOR):
        raise ValueError(f"cascade input must be bounded by 2 on its whole grid, found {sup}")
    theta = chain.decay_ratio
    a = chain.zoom_ratio**chain.zoom_time_exponent
    cfg = solve_config or SolveConfig()
    records: list[OscillationRecord] = []
    u = f
    for m in range(levels + 1):
        try:
            win = Window(u.spec, ZOOM_WINDOW)
            lo, hi = tables.min(win), tables.max(win)
            window_tol = tables.one_cell(win)
            d, _ = select_recenter(lo, hi, chain, window_tol)
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
                u, tables, hamiltonian = _zoom_resolve(u, tables, d, chain, hamiltonian, cfg)
        except (SolverError, ValueError) as err:
            return records, f"cascade aborted at level {m}: {err}"
        except OverflowError as err:
            return records, f"cascade aborted at level {m}: arithmetic overflow: {err}"
    return records, None


def cascade_status(records: list[OscillationRecord], aborted: str | None) -> str:
    """The verdict of one cascade, ``zoom_cascade``'s return: ``"error"``
    when it aborted, else ``"refuted"`` when a record is unsatisfied, else
    ``"pass"``."""
    if aborted is not None:
        return "error"
    return "refuted" if any(not r.satisfied for r in records) else "pass"


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


def _fit_pairs(records: list[OscillationRecord]) -> list[tuple[float, float]]:
    """``(radius, osc_measured)`` of the records whose oscillation clears
    its own resolution floor, the ones a Holder fit reads."""
    return [(r.radius, r.osc_measured) for r in records
            if r.osc_measured > max(r.tolerance, _TOL_FLOOR)]


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
    pairs = _fit_pairs(records)
    radii = np.array([p[0] for p in pairs])
    slope, c_est, residual = math.inf, 0.0, 0.0
    if len(pairs) >= 3:
        logs_r = np.log(radii)
        logs_o = np.log(np.array([p[1] for p in pairs]))
        slope, intercept = np.polyfit(logs_r, logs_o, 1)
        fitted = slope * logs_r + intercept
        residual = float(np.sqrt(np.mean((logs_o - fitted) ** 2)))
        c_est = float(np.exp(intercept))
    return HolderEstimate(
        alpha_est=float(slope),
        c_est=c_est,
        fit_residual=residual,
        scale_range=(float(radii.min()), float(radii.max())) if pairs else (0.0, 0.0),
        points_used=len(pairs),
        degenerate=len(pairs) < 3,
        alpha_theory=chain.holder_exponent,
    )


# The per-slice extrema of the whole box that ``gauge_to_window`` reads.
GAUGE_READS = (SliceRead("max", None), SliceRead("min", None))


def gauge_term(spec: GridSpec, env: CoercivityEnvelope) -> ResidualTerm:
    """The residual ``gauge_to_window`` reads: the lower inequality's
    (``residual_supersolution`` at ``env``), taken up to the first block
    of slices with a row whose min is below ``-residual_tol``."""
    return ResidualTerm(env.lam, stop_below=-spec.residual_tol)


def gauge_to_window(
    field: ScalarField, env: CoercivityEnvelope,
    tables: SliceTables | None = None, residual: ResidualReport | None = None,
) -> tuple[GaugedField, bool, float]:
    """Prepare a solved field for base-point zooming.

    Gauges it by ``lam * t`` when the raw lower-inequality residual fails
    (any solution inside the envelope then satisfies both one-sided
    inequalities at the doubled constant) and reports the value factor
    that caps the gauged field at 2.  The cap reads the
    :data:`GAUGE_READS` of ``tables``, and the verdict ``residual``, the
    report of :func:`gauge_term`: a run passes those its march fed, and
    without them one ``SliceScan`` of the field takes both, so the field
    must hold every slice.  Returns ``(gauged_field, gauged, cap_factor)``:
    ``field`` with rate ``lam`` or 0, never a shifted copy.
    """
    spec = field.spec
    term = gauge_term(spec, env)
    if tables is None:
        tables = SliceTables(spec, GAUGE_READS)
        rows = ResidualRows(spec, env.p, [term])
        SliceScan(spec, [tables, rows]).read(field)
        [residual] = rows.reports()
    fails = residual.min_value < term.stop_below
    out = GaugedField(field, env.lam if fails else 0.0)
    # rounding is monotone: a slice's gauged max (min) is its max (min) gauged
    gauge = spec.times() * out.rate
    sup = float(max((tables.table("max", None) + gauge).max(),
                    -(tables.table("min", None) + gauge).min()))
    gamma = 1.0 if sup <= 2.0 else 2.0 / sup
    return out, fails, gamma


def base_times(spec: GridSpec, delta_time: float, points_per_axis: int) -> list[float]:
    """The base times ``theorem_check`` zooms at: ``points_per_axis``
    equally spaced times from ``delta_time`` to the grid's end."""
    return [float(t0) for t0 in np.linspace(delta_time, spec.t_end, points_per_axis)]


def base_point_slices(spec: GridSpec, chain: ConstantChain, t0: float) -> range:
    """The slices of a field on ``spec`` that ``base_point_window`` reads
    around base time ``t0`` onto a ``[-4, 0]`` working grid, for any
    ``gamma`` and base point.

    The window pulls back to ``[t0 - 4 tau eps_time, t0]`` with
    ``eps_time = prezoom_scale^prezoom_time_exponent`` and ``tau <= (t0 -
    t_start) / 4``, so it lies in ``[t0 - (t0 - t_start) eps_time, t0]``,
    and the multilinear sample reads ``Window.slice_range`` of its queries
    padded by two: this is that range for the widest queries.
    """
    eps_time = chain.prezoom_scale**chain.prezoom_time_exponent
    return Window.slice_range(spec, t0 - (t0 - spec.t_start) * eps_time, t0, pad=2)


def base_point_room(spec: GridSpec, x0) -> float:
    """Space between base point ``x0`` and two cells inside the box edge,
    the margin ``base_point_window`` zooms into; a base point needs it > 0."""
    return spec.half_width - float(np.max(np.abs(x0))) - 2.0 * spec.cell_width


def base_point_window(
    field: ScalarField | GaugedField,
    chain: ConstantChain,
    t0: float,
    x0,
    gamma: float,
    working: GridSpec,
    hamiltonian,
):
    """Affine-map a neighborhood of ``(t0, x0)`` onto the cascade window.

    ``field`` must already carry any gauge shift (as a :class:`GaugedField`
    from ``gauge_to_window``) and satisfy ``gamma * |field| <= 2``.  The
    map composes the cap factor, the normalization ``w(t, x) = gamma *
    field(t0 + tau t, x0 + rho x)`` with ``(gamma rho)^p = gamma tau <= 1``
    (so both one-sided inequalities survive with unchanged constants), and
    the chain's first-stage zoom into a single resample onto ``working``.
    ``hamiltonian`` must be the one ``field`` solves (gauge constant
    included) and comes back reparametrized to the one the window solves.
    Returns ``(window, window_hamiltonian, tau, rho)``.
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
    room = base_point_room(spec, x0_arr)
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
    hamiltonian,
    opts,
    solve_config: SolveConfig | None,
    tables: SliceTables | None = None,
    residual: ResidualReport | None = None,
) -> tuple[bool, float, list[tuple]]:
    """Gauge ``field`` once (``gauge_to_window`` of ``tables`` and
    ``residual``), then window and cascade it at each ``(t0, x0)``.

    The chain must be built for the field's dimension at twice the
    envelope constant.  ``hamiltonian`` is the one ``field`` solves; the
    gauge constant is added to it.  ``opts``, an ``experiment`` zoom
    section's settings, sizes each window's working grid ``[-4, 0] x
    box(1.25)`` and sets the cascades' ``levels``.  Returns ``(gauged,
    gamma, runs)`` with one ``(tau, rho, records, aborted)`` per point,
    the last two being ``zoom_cascade``'s return on that point's window.
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
    u, gauged, gamma = gauge_to_window(field, env, tables, residual)
    if gauged:
        hamiltonian = TransformedHamiltonian(base=hamiltonian, const=-env.lam)
    working = GridSpec(
        dimension=spec.dimension,
        half_width=1.25,
        cells_per_axis=opts.working_cells,
        t_start=-4.0,
        t_end=0.0,
        dt=4.0 / opts.working_slices,
    )
    runs = []
    for t0, x0 in points:
        w, h_w, tau, rho = base_point_window(
            u, chain, t0, x0, gamma, working, hamiltonian
        )
        runs.append((tau, rho, *zoom_cascade(w, chain, opts.levels, h_w, solve_config)))
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
    scale) contribute no quotient.  ``status`` is ``"error"`` when a
    point's cascade aborted (its entry then carries ``aborted``, the
    cascade's message), else ``"refuted"`` when a record is unsatisfied or
    a finite ``alpha_min`` falls below ``alpha_theory``, else ``"pass"``.
    """

    delta_time: float
    gauged: bool
    alpha_theory: float
    entries: tuple[dict, ...]
    alpha_min: float
    max_quotient: float
    n_degenerate: int
    n_unsatisfied: int
    status: str


def theorem_check(
    field: ScalarField,
    delta_time: float,
    chain: ConstantChain,
    env: CoercivityEnvelope,
    hamiltonian,
    opts,
    solve_config: SolveConfig | None = None,
    tables: SliceTables | None = None,
    residual: ResidualReport | None = None,
) -> TheoremReport:
    """Estimate interior Holder regularity of a solved field.

    The field (typically a solved field on ``[0, T] x box``, which may
    keep only the slices ``base_point_slices`` names around each base time
    when ``tables`` and ``residual`` come from its march, as for
    ``gauge_to_window``) is shifted by ``lam * t`` when its raw
    lower-inequality residual fails on some block of slices (the gauge's
    residual stops at the first),
    which certifies the one-sided inequalities for any Hamiltonian inside
    the coercivity envelope at the doubled constant; the chain must be
    built at that doubled constant.  Around every base point ``(t0, x0)``
    of a lattice with ``t0 >= delta_time``, the field is normalized by
    ``w(t, x) = g * u(t0 + tau t, x0 + rho x)`` with ``g`` capping ``|w|``
    at 2 and ``(g rho)^p = g tau <= 1`` preserving both inequalities, then
    the first-stage zoom and the cascade run on a working grid, the
    lattice and the cascades sized by ``opts``, a ``TheoremSettings``.
    """
    spec = field.spec
    if not spec.t_start < delta_time <= spec.t_end:
        raise ValueError(
            f"delta_time {delta_time} outside the field's time window "
            f"({spec.t_start}, {spec.t_end}]"
        )
    half = 0.5 * spec.half_width
    axis_pts = np.linspace(-half, half, opts.points_per_axis)
    grids = np.meshgrid(*([axis_pts] * spec.dimension), indexing="ij")
    x_points = np.stack([g.ravel() for g in grids], axis=-1)
    points = [(t0, x0) for t0 in base_times(spec, delta_time, opts.points_per_axis)
              for x0 in x_points]
    gauged, gamma, runs = _base_point_cascades(
        field, chain, env, points, hamiltonian, opts, solve_config, tables, residual)

    entries: list[dict] = []
    all_pairs: list[tuple[float, float]] = []
    finite: list[float] = []
    n_unsatisfied = 0
    statuses = set()
    for (t0, x0), (tau, rho, records, aborted) in zip(points, runs):
        statuses.add(cascade_status(records, aborted))
        est = holder_estimate(records, chain)
        if not est.degenerate:
            finite.append(est.alpha_est)
            all_pairs.extend(_fit_pairs(records))
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
                **({} if aborted is None else {"aborted": aborted}),
            }
        )
    alpha_min = min(finite) if finite else math.inf
    if finite and all_pairs:
        max_quotient = max(osc / radius**alpha_min for radius, osc in all_pairs)
    else:
        max_quotient = 0.0
    low = math.isfinite(alpha_min) and alpha_min < chain.holder_exponent
    status = ("error" if "error" in statuses
              else "refuted" if low or "refuted" in statuses else "pass")
    return TheoremReport(
        delta_time=delta_time,
        gauged=gauged,
        alpha_theory=chain.holder_exponent,
        entries=tuple(entries),
        alpha_min=alpha_min,
        max_quotient=max_quotient,
        n_degenerate=len(entries) - len(finite),
        n_unsatisfied=n_unsatisfied,
        status=status,
    )
