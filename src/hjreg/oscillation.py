"""Explicit constant chain and two-sided oscillation improvement checks.

The regularity argument runs on a chain of constants derived from four
inputs: the dimension, the gradient power ``p``, the ellipticity constant
``lam``, and the middle-layer measure threshold of the De Giorgi stage.
From those it fixes, in order, the dyadic ladder depth, the guaranteed drop
below the maximum after one pass (``shrink_above``), a barrier height/slope
pair, the matching lift above the minimum (``shrink_below``), and the
per-zoom decay ratio whose iteration produces a Holder exponent.

Two verdict checkers evaluate the improvement statements on concrete
fields.  From above: a subsolution of the zoomed-in inequality that stays
below 2 and is nonpositive on half the unit cylinder must stay below
``2 - shrink_above`` on the late window.  From below: a field solving both
zoomed-in inequalities, bounded below by -2 on the cylinder, nonnegative on
half of it, and pinned above a sloped envelope on the whole box, must stay
above ``-2 + shrink_below`` on the late half-ball.  The below check reuses
the above machinery through the reflection ``v(t, x) = -f(-t, x)`` and
closes the late window with an explicit comparison barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .degiorgi import LemmaVerdict
from .grid import (
    Cylinder,
    GridSpec,
    ScalarField,
    Window,
    ball_volume,
    level_set_measure,
    one_cell_oscillation,
    slice_blocks,
    to_json,
)
from .hamiltonians import CoercivityEnvelope
from .solver import residual_subsolution, residual_supersolution

__all__ = [
    "ChainConstructionError",
    "ComparisonReport",
    "ConstantChain",
    "InvariantCheck",
    "TimeReversed",
    "barrier",
    "barrier_field",
    "build_constant_chain",
    "comparison_check",
    "dyadic_ladder",
    "growth_envelope",
    "oscillation_above_check",
    "oscillation_below_check",
    "time_reverse",
    "validate_chain",
]

_EPS = 1e-9


class ChainConstructionError(ValueError):
    """Raised when the derived constants overflow or fail their own checks."""


@dataclass(frozen=True)
class ConstantChain:
    """Every constant of the oscillation argument, fully evaluated.

    The fields are ordered by derivation.  ``ladder_depth`` counts the
    dyadic levels the pigeonhole scans; ``shrink_above`` is the certified
    drop below the maximum, ``2^-(ladder_depth + 1)``.  The barrier pair
    (``barrier_height``, ``barrier_slope``) must satisfy the strict
    constraint ``2 * height < slope`` for the comparison step to close;
    ``shrink_below`` is half the height.  ``decay_ratio`` is the oscillation
    contraction per zoom, ``(4 - shrink_below) / 4``.  The prezoom pair
    normalizes a solution of the original inequalities to the zoomed-in
    pair; the zoom pair (``zoom_ratio``, ``zoom_time_exponent``) fixes the
    parabolic scaling of every later zoom, and ``holder_exponent`` is the
    decay rate that geometry certifies: oscillation over a window of radius
    ``r`` shrinks like ``r^holder_exponent``.
    """

    dimension: int
    p: float
    lam: float
    middle_threshold: float
    ladder_depth: int
    shrink_above: float
    barrier_height: float
    barrier_slope: float
    shrink_below: float
    decay_ratio: float
    prezoom_scale: float
    prezoom_time_exponent: float
    zoom_ratio: float
    zoom_time_exponent: float
    holder_exponent: float

    @property
    def subsolution_coefficient(self) -> float:
        """Gradient coefficient of the zoomed-in upper inequality
        ``du/dt + A |grad u|^p <= B``."""
        return 2.0 ** ((self.ladder_depth + 1) * (self.p - 1.0)) / self.lam

    @property
    def subsolution_offset(self) -> float:
        """Right-hand side B of the zoomed-in upper inequality."""
        return self.lam * 2.0 ** -(self.ladder_depth + 1)

    @property
    def supersolution_coefficient(self) -> float:
        """Gradient coefficient of the zoomed-in lower inequality
        ``du/dt + A |grad u|^p >= 0``."""
        return 2.0 ** ((self.ladder_depth + 1) * (self.p - 1.0)) * self.lam

    @property
    def envelope(self) -> CoercivityEnvelope:
        return CoercivityEnvelope(lam=self.lam, p=self.p)

    def to_json_dict(self) -> dict:
        checks = validate_chain(self)
        return {
            **to_json(self),
            "invariants_ok": all(c.ok for c in checks.values()),
            "invariant_slacks": {name: c.slack for name, c in checks.items()},
        }


def build_constant_chain(
    dimension: int, p: float, lam: float, middle_threshold: float
) -> ConstantChain:
    """Derive the full constant chain from the base four parameters.

    The ladder depth is ``floor(|[-2,2] x B(1)| / middle_threshold) + 1``
    and ``shrink_above = 2^-(depth+1)``.  The barrier height solves the
    slope constraint with margin: the largest admissible height satisfies
    ``2 h = (h / c)^(1/p)`` with ``c = 8 * supersolution_coefficient``, and
    the chain takes half of ``min(shrink_above, largest admissible)``.  The
    prezoom scale uses time exponent 1, which gives the closed form
    ``2^-(depth+1)``.  The zoom exponent pair comes from the smallest decay
    rate ``r`` (with ``zoom_ratio = decay_ratio^r``) that passes both
    closure checks, doubled as safety margin; ``holder_exponent = 1/r``.

    Raises ``ValueError`` outside the theorem scope (``p >= dimension``)
    or for a middle threshold that is not positive and finite, and
    ``ChainConstructionError``, a ``ValueError`` too, when the ladder
    constants overflow or the selected constants fail their own
    re-verification.
    """
    if not p > 1.0:
        raise ValueError(f"gradient power must exceed 1, got {p}")
    if p >= dimension:
        raise ValueError(f"the machinery needs p < N, got p={p}, N={dimension}")
    if lam < 1.0:
        raise ValueError(f"ellipticity constant must be >= 1, got {lam}")
    if not 0.0 < middle_threshold < math.inf:
        raise ValueError(
            f"middle threshold must be positive and finite, got {middle_threshold}"
        )

    try:
        cylinder_volume = 4.0 * ball_volume(dimension, 1.0)
        depth = math.floor(cylinder_volume / middle_threshold) + 1
        c = 8.0 * lam * 2.0 ** ((p - 1.0) * (depth + 1))
    except OverflowError:
        raise ChainConstructionError(
            f"the ladder constants overflow at N={dimension} with middle "
            f"threshold {middle_threshold}"
        ) from None
    shrink_above = 2.0 ** -(depth + 1)

    # Largest height with 2h = (h/c)^(1/p); anything smaller satisfies the
    # strict inequality because the left side is linear and the right side
    # is concave in h.
    height_max = (c * 2.0**p) ** (-1.0 / (p - 1.0))
    height = 0.5 * min(shrink_above, height_max)
    slope = (height / c) ** (1.0 / p)
    if not 2.0 * height < slope:
        raise ChainConstructionError(
            f"barrier constraint failed: 2*height={2 * height} >= slope={slope} "
            f"(height_max={height_max}, shrink_above={shrink_above})"
        )
    shrink_below = 0.5 * height
    theta = (4.0 - shrink_below) / 4.0
    log_theta = math.log1p(-shrink_below / 4.0)

    prezoom_exp = 1.0
    prezoom_scale = 2.0 ** (-(depth + 1) * (p - 1.0) / (p - prezoom_exp))

    # Closure check (a): zoom_ratio small enough that the recentred field
    # stays under the sloped envelope.  Rearranged to a pure cap on the
    # ratio: zoom_ratio <= 1 / (2 (1 + lhs_excess / slope)) with
    # lhs_excess = 4*shrink_below / (4 - shrink_below).
    lhs_excess = 4.0 * shrink_below / (4.0 - shrink_below)
    ratio_cap = 1.0 / (2.0 * (1.0 + lhs_excess / slope))
    r_a = math.log(ratio_cap) / log_theta
    # Closure check (b): one zoom must shrink time faster than the
    # oscillation budget grows, zoom_ratio^-zoom_time_exponent > 4, which
    # linearizes in r through zoom_time_exponent = p - (p-1)/r.
    r_b = (math.log(4.0) / -log_theta + (p - 1.0)) / p
    r = 2.0 * max(1.0, r_a, r_b)

    zoom_exp = p - (p - 1.0) / r
    zoom_ratio = math.exp(r * log_theta)
    holder = 1.0 / r

    chain = ConstantChain(
        dimension=dimension,
        p=p,
        lam=lam,
        middle_threshold=middle_threshold,
        ladder_depth=depth,
        shrink_above=shrink_above,
        barrier_height=height,
        barrier_slope=slope,
        shrink_below=shrink_below,
        decay_ratio=theta,
        prezoom_scale=prezoom_scale,
        prezoom_time_exponent=prezoom_exp,
        zoom_ratio=zoom_ratio,
        zoom_time_exponent=zoom_exp,
        holder_exponent=holder,
    )
    failed = {
        name: check for name, check in validate_chain(chain).items() if not check.ok
    }
    if failed:
        report = "; ".join(
            f"{name}: slack={check.slack:.3e} ({check.detail})"
            for name, check in failed.items()
        )
        raise ChainConstructionError(
            f"chain re-verification failed with r in [{max(1.0, r_a, r_b)}, {r}]: "
            f"{report}"
        )
    return chain


@dataclass(frozen=True)
class InvariantCheck:
    """One re-derived identity or inequality of the chain.

    ``slack`` is the binding margin: positive means the invariant holds
    with room, negative says by how much it fails.  Equalities convert to
    margins through ``tol - relative deviation``.
    """

    ok: bool
    slack: float
    detail: str


def _equality_slack(lhs: float, rhs: float, tol: float) -> float:
    return tol - abs(lhs - rhs) / max(1.0, abs(rhs))


def validate_chain(
    chain: ConstantChain,
    rel_tol: float = 1e-12,
    coupled_tol: float = 1e-5,
) -> dict[str, InvariantCheck]:
    """Re-derive every invariant from the finished chain's own fields.

    Deliberately independent of the constructor: each right-hand side is
    recomputed from other stored fields.  Identities that pass through the
    difference ``p - zoom_time_exponent`` lose about seven digits to
    cancellation (the difference is near ``1e-9`` while both terms are
    order one), so those are held to ``coupled_tol`` instead of
    ``rel_tol``.
    """
    out: dict[str, InvariantCheck] = {}
    p = chain.p
    depth = chain.ladder_depth

    expected_depth = (
        math.floor(4.0 * ball_volume(chain.dimension, 1.0) / chain.middle_threshold)
        + 1
    )
    out["ladder_depth"] = InvariantCheck(
        ok=depth == expected_depth,
        slack=0.5 - abs(depth - expected_depth),
        detail=f"stored {depth}, recomputed {expected_depth}",
    )

    expected_shrink = 2.0 ** -(depth + 1)
    out["shrink_above"] = InvariantCheck(
        ok=_equality_slack(chain.shrink_above, expected_shrink, rel_tol) >= 0.0,
        slack=_equality_slack(chain.shrink_above, expected_shrink, rel_tol),
        detail=f"stored {chain.shrink_above}, recomputed {expected_shrink}",
    )

    c = 8.0 * chain.lam * 2.0 ** ((p - 1.0) * (depth + 1))
    slope_recomputed = (chain.barrier_height / c) ** (1.0 / p)
    height_slack = min(
        chain.barrier_height,
        chain.shrink_above - chain.barrier_height,
        slope_recomputed - 2.0 * chain.barrier_height,
    )
    out["barrier_height"] = InvariantCheck(
        ok=height_slack > 0.0,
        slack=height_slack,
        detail=(
            f"need 0 < height < shrink_above and 2*height < slope; "
            f"height={chain.barrier_height}, slope={slope_recomputed}"
        ),
    )

    slope_slack = _equality_slack(chain.barrier_slope, slope_recomputed, rel_tol)
    out["barrier_slope"] = InvariantCheck(
        ok=slope_slack >= 0.0,
        slack=slope_slack,
        detail=f"stored {chain.barrier_slope}, recomputed {slope_recomputed}",
    )

    shrink_slack = _equality_slack(
        chain.shrink_below, 0.5 * chain.barrier_height, rel_tol
    )
    theta_slack = _equality_slack(
        chain.decay_ratio, (4.0 - chain.shrink_below) / 4.0, rel_tol
    )
    out["shrink_below"] = InvariantCheck(
        ok=min(shrink_slack, theta_slack) >= 0.0,
        slack=min(shrink_slack, theta_slack),
        detail=(
            f"shrink_below={chain.shrink_below} vs height/2, "
            f"decay_ratio={chain.decay_ratio} vs (4 - shrink_below)/4"
        ),
    )

    a_exp = chain.prezoom_time_exponent
    gain = chain.prezoom_scale ** -(p - a_exp)
    gain_target = 2.0 ** ((depth + 1) * (p - 1.0))
    gain_slack = rel_tol - abs(gain - gain_target) / gain_target
    fine_slack = (
        2.0 ** -(depth + 1) - chain.prezoom_scale**a_exp
    ) / 2.0 ** -(depth + 1) + rel_tol
    out["prezoom_scale"] = InvariantCheck(
        ok=min(gain_slack, fine_slack) >= 0.0,
        slack=min(gain_slack, fine_slack),
        detail=(
            f"scale^-(p - a) = {gain} vs {gain_target}; "
            f"scale^a = {chain.prezoom_scale**a_exp} must be <= {2.0 ** -(depth + 1)}"
        ),
    )

    # Once zoom_time_exponent rounds to p the rate is undefined, and the
    # identity cannot be checked: it fails.
    deficit = p - chain.zoom_time_exponent
    rate = (p - 1.0) / deficit if deficit > 0.0 else math.inf
    ratio_recomputed = chain.decay_ratio**rate
    ratio_slack = (_equality_slack(chain.zoom_ratio, ratio_recomputed, coupled_tol)
                   if deficit > 0.0 else -math.inf)
    out["zoom_ratio"] = InvariantCheck(
        ok=ratio_slack >= 0.0,
        slack=ratio_slack,
        detail=(
            f"stored {chain.zoom_ratio}, decay_ratio^rate = {ratio_recomputed} "
            f"with rate = (p-1)/(p - zoom_time_exponent) = {rate}"
        ),
    )

    in_range = min(chain.zoom_time_exponent - 1.0, p - chain.zoom_time_exponent)
    # Both sides of the envelope-closure check share the constant 2; the
    # slack below subtracts it analytically so the comparison is between
    # the small excesses rather than numbers of order one.
    lhs_excess = 4.0 * chain.shrink_below / (4.0 - chain.shrink_below)
    if chain.zoom_ratio > 0.0:
        rhs_excess = chain.barrier_slope * (1.0 / (2.0 * chain.zoom_ratio) - 1.0)
        try:
            time_gain = chain.zoom_ratio**-chain.zoom_time_exponent - 4.0
        except OverflowError:
            time_gain = math.inf
    else:  # a ratio that underflowed to 0 zooms to a point: both closures fail
        rhs_excess = time_gain = -math.inf
    envelope_slack = rhs_excess - lhs_excess
    exponent_slack = min(in_range, envelope_slack, time_gain)
    out["zoom_exponent"] = InvariantCheck(
        ok=exponent_slack > 0.0,
        slack=exponent_slack,
        detail=(
            f"exponent in (1, p) margin {in_range}; envelope closure margin "
            f"{envelope_slack}; time shrink ratio^-exponent - 4 = {time_gain}"
        ),
    )

    holder_recomputed = (p - chain.zoom_time_exponent) / (p - 1.0)
    holder_eq = _equality_slack(chain.holder_exponent, holder_recomputed, coupled_tol)
    holder_slack = min(
        holder_eq, chain.holder_exponent, 1.0 - chain.holder_exponent
    )
    out["holder_exponent"] = InvariantCheck(
        ok=holder_eq >= 0.0 and 0.0 < chain.holder_exponent < 1.0,
        slack=holder_slack,
        detail=(
            f"stored {chain.holder_exponent}, "
            f"(p - zoom_time_exponent)/(p - 1) = {holder_recomputed}"
        ),
    )
    return out


def dyadic_ladder(f: ScalarField, k: int) -> ScalarField:
    """Level-``k`` dyadic renormalization ``2^k (f - 2 (1 - 2^-k))``.

    Each level doubles the previous one around the pivot 1 (level ``k`` is
    ``2 (u_{k-1} - 1)``), so the value 2 is a fixed point of every level
    and everything below 2 is pushed down geometrically.  Both properties
    are exact in floating point for any ``k`` up to the mantissa width:
    the shift and the scaling are powers of two.
    """
    if k < 1:
        raise ValueError(f"ladder level must be >= 1, got {k}")
    shift = 2.0 - 2.0 ** (1 - k)
    return ScalarField(f.spec, 2.0**k * (f.values - shift))


@dataclass(frozen=True)
class TimeReversed:
    """The reflection ``v(t, x) = -f(-t, x)`` of a field on a time interval
    symmetric about 0, read a block of slices at a time: slice ``i`` of
    ``v`` is slice ``n_slices - 1 - i`` of ``f``, negated.  Negation and
    reindexing are exact, so reflecting twice reads the original bit for
    bit."""

    source: ScalarField

    @property
    def spec(self) -> GridSpec:
        return self.source.spec

    def rows(self, lo: int, hi: int) -> NDArray[np.float64]:
        """Slices ``lo:hi`` of the reflection, as a new C-contiguous array."""
        n = self.spec.n_slices
        return np.negative(self.source.rows(n - hi, n - lo)[::-1])


def time_reverse(f: ScalarField | TimeReversed) -> TimeReversed:
    """Reflect in time and flip sign: ``v(t, x) = -f(-t, x)``, read lazily.

    Requires a time interval symmetric about 0 so reflected slices land
    back on lattice times.
    """
    spec = f.spec
    if abs(spec.t_start + spec.t_end) > _EPS * max(1.0, abs(spec.t_end)):
        raise ValueError(
            f"time interval [{spec.t_start}, {spec.t_end}] is not symmetric "
            "about 0; reflection would leave the lattice"
        )
    return TimeReversed(f)


def barrier(
    chain: ConstantChain, t: float, radii: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Comparison barrier at time ``t`` and distances ``radii`` from the
    origin: ``min(plateau, wedge)`` with the plateau at
    ``-2 + barrier_height`` and the wedge dropping linearly in time from -2
    at rate ``barrier_height / 8`` while rising toward the ball center with
    spatial slope ``barrier_slope``."""
    return np.minimum(
        -2.0 + chain.barrier_height,
        -2.0 - chain.barrier_height / 8.0 * (t + 2.0)
        + chain.barrier_slope * (1.0 - radii),
    )


def growth_envelope(chain: ConstantChain, spec: GridSpec) -> NDArray[np.float64]:
    """The sloped envelope ``2 + barrier_slope * (|x| - 1)_+`` at the cell
    centers of ``spec``: a zoom's input stays under it in absolute value,
    and the improvement from below needs the field above its negative."""
    radii = np.linalg.norm(spec.centers(), axis=-1)
    return 2.0 + chain.barrier_slope * np.maximum(radii - 1.0, 0.0)


def barrier_field(chain: ConstantChain, spec: GridSpec) -> ScalarField:
    """Sample the comparison barrier at every cell center of the grid."""
    radii = np.linalg.norm(spec.centers(), axis=-1)
    out = np.empty((spec.n_slices, *spec.spatial_shape))
    for i, t in enumerate(spec.times()):
        out[i] = barrier(chain, t, radii)
    return ScalarField(spec, out)


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise ordering of a field against the comparison barrier.

    ``min_margin`` is the least of the field minus the barrier on the full
    grid; a monotone solver started at or above the barrier keeps it above
    ``-O(cell width)``.  ``worst_cells`` lists up to eight most negative
    cells as ``(slice index, *cell index)``.
    """

    min_margin: float
    n_violations: int
    worst_cells: tuple[tuple[int, ...], ...]
    cell_width: float


def comparison_check(
    f: ScalarField,
    chain: ConstantChain,
    residual_tol: float | None = None,
) -> ComparisonReport:
    """Margin of a field over the comparison barrier, everywhere on its grid.

    Preconditions are raised, not reported: the field must start at or
    above the barrier on its first slice (the ordering the comparison
    principle propagates), and it must satisfy the zoomed-in lower
    inequality up to ``residual_tol`` (default ``10 (cell width + dt)``).
    The margin is the one trajectory-sized array it holds.
    """
    spec = f.spec
    radii = np.linalg.norm(spec.centers(), axis=-1)
    initial_gap = float((f.values[0] - barrier(chain, spec.times()[0], radii)).min())
    if initial_gap < 0.0:
        raise ValueError(
            f"initial slice dips {-initial_gap} below the barrier; "
            "comparison needs ordering at the starting time"
        )
    tol = spec.residual_tol if residual_tol is None else residual_tol
    rep = residual_supersolution(f, chain.envelope,
                                 a_coef=chain.supersolution_coefficient)
    if rep.min_value < -tol:
        raise ValueError(
            f"lower-inequality residual {rep.min_value} is below -{tol}; "
            "the field is not a supersolution on this grid"
        )
    margin = np.empty(f.values.shape)
    for i, t in enumerate(spec.times()):
        np.subtract(f.values[i], barrier(chain, t, radii), out=margin[i])
    n_violations, flat_order = _most_negative(margin, 8)
    worst = tuple(
        tuple(int(i) for i in np.unravel_index(k, margin.shape))
        for k in flat_order
    )
    return ComparisonReport(
        min_margin=float(margin.min()),
        n_violations=n_violations,
        worst_cells=worst,
        cell_width=spec.cell_width,
    )


def _most_negative(values: NDArray[np.float64], k: int) -> tuple[int, NDArray[np.intp]]:
    """The count of negative entries of ``values`` and the flat indices of
    the ``k`` least, in stable-sort order: per block of slices,
    ``np.argpartition`` cuts, then a (value, index) ``lexsort`` merges."""
    cells = math.prod(values.shape[1:])
    flat = values.reshape(-1)
    count, best = 0, np.empty(0, dtype=np.intp)
    for lo, hi in slice_blocks(0, len(values), cells):
        index = np.flatnonzero(values[lo:hi] < 0.0) + lo * cells
        count += index.size
        if index.size > k:  # every entry tied with the k-th least stays
            picked = flat[index]
            index = index[picked <= picked[np.argpartition(picked, k - 1)[k - 1]]]
        merged = np.concatenate([best, index])
        best = merged[np.lexsort((merged, flat[merged]))[:k]]
    return count, best


def _witness_level(
    f: ScalarField, chain: ConstantChain, win: Window
) -> tuple[int | None, list[float]]:
    """Smallest ladder level whose middle layer is thin, plus all measures.

    The middle layers ``{0 < level k < 1}`` pull back to disjoint value
    bands of the original field, so their measures sum to at most the
    cylinder volume and some level at most ``ladder_depth`` must dip under
    the threshold; on a finite lattice the witness can still be missing
    when the counted measure overshoots, in which case ``None`` is
    returned rather than a guess.

    Level ``k``'s layer is counted as the band
    ``0 < f - (2 - 2^(1-k)) < 2^-k`` of ``f`` itself: scaling by ``2^k``
    is exact, so this matches ``{0 < dyadic_ladder(f, k) < 1}`` bit for bit
    without building the ladder.
    """
    levels = range(1, chain.ladder_depth + 1)
    counts: list[list] = [[] for _ in levels]
    for vals in win.rows(f, weighted=True):
        for k, per_level in zip(levels, counts):
            band = vals - (2.0 - 2.0 ** (1 - k))
            per_level.append(
                np.count_nonzero((band > 0.0) & (band < 2.0**-k), axis=1)
            )
    measures = [win.measure(per_level) for per_level in counts]
    witness = next(
        (k for k, mass in zip(levels, measures) if mass <= chain.middle_threshold),
        None,
    )
    return witness, measures


def oscillation_above_check(
    f: ScalarField | TimeReversed,
    chain: ConstantChain,
    residual_tol: float | None = None,
    conclusion_tol: float | None = None,
) -> LemmaVerdict:
    """One-pass improvement from above on ``[-2, 2] x B(1)``.

    Preconditions: the field stays below 2 on the cylinder (up to the
    one-cell resolution floor) and satisfies the zoomed-in upper
    inequality inside the ball.  Hypothesis: the nonpositive set fills at
    least half the cylinder.  Conclusion: the field stays below
    ``2 - shrink_above`` on the late window ``[1, 2] x B(1)``.

    Diagnostics carry the pigeonhole witness: the smallest dyadic level
    whose middle layer has measure at most the threshold, if one exists.
    Every read of ``f`` goes through its ``rows``, a block of slices at a
    time, so a :class:`TimeReversed` field is never built whole.
    """
    spec = f.spec
    origin = (0.0,) * spec.dimension
    cyl = Cylinder(-2.0, 2.0, origin, 1.0)
    Window.require_cover(spec, cyl)
    win = Window(spec, cyl)
    late = Window(spec, Cylinder(1.0, 2.0, origin, 1.0))

    sup_all = win.max(f)
    bound_tol = one_cell_oscillation(f, cyl)
    tol = spec.residual_tol if residual_tol is None else residual_tol
    worst = residual_subsolution(
        f, chain.envelope, a_coef=chain.subsolution_coefficient,
        b_const=chain.subsolution_offset, ball=win.mask,
    ).ball_max
    preconditions = {
        "bounded_by_two": sup_all <= 2.0 + bound_tol, "subsolution": worst <= tol,
    }
    diagnostics: dict = {"sup": sup_all, "subsolution_residual": worst}
    tolerances = {"bounded_by_two": bound_tol, "residual": tol}

    total = level_set_measure(f, cyl)
    nonpos_mass = level_set_measure(f, cyl, hi=0.0, closed_upper=True)

    concl_tol = (
        one_cell_oscillation(f, late.cylinder)
        if conclusion_tol is None
        else conclusion_tol
    )
    late_sup = late.max(f)
    tolerances["conclusion"] = concl_tol

    witness, middle_measures = _witness_level(f, chain, win)
    diagnostics["witness_level"] = witness
    diagnostics["middle_measures"] = middle_measures

    return LemmaVerdict(
        name="oscillation-improvement-above",
        preconditions=preconditions,
        hypothesis_values={"nonpositive_set": nonpos_mass},
        hypothesis_thresholds={"nonpositive_set": 0.5 * total},
        hypothesis_satisfied=nonpos_mass >= 0.5 * total,
        conclusion_values={"late_sup": late_sup},
        conclusion_thresholds={"late_sup": 2.0 - chain.shrink_above + concl_tol},
        conclusion_satisfied=late_sup <= 2.0 - chain.shrink_above + concl_tol,
        tolerances=tolerances,
        cell_width=spec.cell_width,
        diagnostics=diagnostics,
    )


def oscillation_below_check(
    f: ScalarField,
    chain: ConstantChain,
    residual_tol: float | None = None,
    conclusion_tol: float | None = None,
) -> LemmaVerdict:
    """One-pass improvement from below on ``[-2, 2] x B(1)``.

    The grid box must contain the unit ball; the sloped-envelope
    hypothesis is global, so the box edge matters.  Preconditions: the
    field satisfies the zoomed-in lower inequality on the whole box and
    the upper inequality inside the ball.  Hypotheses: bounded below by -2
    on the cylinder, nonnegative on at least half of it, and above
    ``-2 - barrier_slope * (|x| - 1)_+`` everywhere.  Conclusion: the
    field stays above ``-2 + shrink_below`` on ``[1, 2] x B(1/2)``.

    Diagnostics include the full verdict of the improvement from above
    applied to the reflection ``-f(-t, x)`` (read a block at a time through
    ``time_reverse``), whose conclusion window pulls back to the early
    bound ``f >= -2 + shrink_above`` on ``[-2, -1] x B(1)``.
    """
    spec = f.spec
    origin = (0.0,) * spec.dimension
    cyl = Cylinder(-2.0, 2.0, origin, 1.0)
    Window.require_cover(spec, cyl)
    win = Window(spec, cyl)
    late = Window(spec, Cylinder(1.0, 2.0, origin, 0.5))

    bound_tol = one_cell_oscillation(f, cyl)
    tol = spec.residual_tol if residual_tol is None else residual_tol
    # Both inequalities in one pass over the field's |grad u|^p.
    rep = residual_supersolution(
        f, chain.envelope, a_coef=chain.supersolution_coefficient,
        ball=win.mask,
        upper=(chain.subsolution_coefficient, chain.subsolution_offset),
    )
    worst_lower, worst_upper = rep.min_value, rep.upper.ball_max
    preconditions = {
        "supersolution": worst_lower >= -tol, "subsolution": worst_upper <= tol,
    }
    diagnostics: dict = {
        "supersolution_residual": worst_lower, "subsolution_residual": worst_upper,
    }
    tolerances = {"lower_bound": bound_tol, "residual": tol}

    inf_all = win.min(f)
    total = level_set_measure(f, cyl)
    negative_mass = level_set_measure(f, cyl, hi=0.0)
    nonneg_mass = total - negative_mass

    envelope = growth_envelope(chain, spec)
    envelope_margin = min(float((f.rows(lo, hi) + envelope).min())
                          for lo, hi in slice_blocks(0, spec.n_slices, envelope.size))
    envelope_tol = one_cell_oscillation(f)
    tolerances["envelope"] = envelope_tol

    concl_tol = (
        one_cell_oscillation(f, late.cylinder)
        if conclusion_tol is None
        else conclusion_tol
    )
    late_min = late.min(f)
    tolerances["conclusion"] = concl_tol

    reflected = oscillation_above_check(
        time_reverse(f), chain, residual_tol=residual_tol
    )
    diagnostics["reflected_above"] = reflected.to_json_dict()
    diagnostics["early_min"] = -reflected.conclusion_values["late_sup"]

    hypothesis_values = {
        "cylinder_min": inf_all,
        "nonnegative_set": nonneg_mass,
        "envelope_margin": envelope_margin,
    }
    hypothesis_thresholds = {
        "cylinder_min": -2.0 - bound_tol,
        "nonnegative_set": 0.5 * total,
        "envelope_margin": -envelope_tol,
    }
    hypothesis_satisfied = (
        inf_all >= -2.0 - bound_tol
        and nonneg_mass >= 0.5 * total
        and envelope_margin >= -envelope_tol
    )
    return LemmaVerdict(
        name="oscillation-improvement-below",
        preconditions=preconditions,
        hypothesis_values=hypothesis_values,
        hypothesis_thresholds=hypothesis_thresholds,
        hypothesis_satisfied=hypothesis_satisfied,
        conclusion_values={"late_min": late_min},
        conclusion_thresholds={"late_min": -2.0 + chain.shrink_below - concl_tol},
        conclusion_satisfied=late_min >= -2.0 + chain.shrink_below - concl_tol,
        tolerances=tolerances,
        cell_width=spec.cell_width,
        diagnostics=diagnostics,
    )
