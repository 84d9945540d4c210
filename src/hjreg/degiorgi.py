"""Truncation energies and smallness-implies-boundedness checks.

The machinery measures how the positive excursion of a bounded subsolution
dies out level by level.  For level ``k >= 1`` the truncation threshold is
``1 - 2^-k`` and the truncated field is ``v_k = (u - (1 - 2^-k))_+``.  Its
energy on the shrinking cylinders ``[1 - 2^-k, 2] x B(1)`` is

    U_k = sup_t int_B v_k  +  int int_B |grad v_k|^p,

and the whole argument rests on the nonlinear recurrence
``U_k <= D * U_{k-1}^(1 + p/N)``: any sequence obeying it collapses to zero
in finitely many effective steps once ``U_1`` falls below the
fast-convergence threshold ``eps0 = (1/2) * D^(-1/beta)`` with
``beta = p/N``.  The entry smallness constant handed to the integral
hypothesis is ``delta = eps0 / (2 lam (1 + lam))``.

Everything here evaluates on cell-counting measures from :mod:`hjreg.grid`;
suprema over time are maxima over grid slices, with no interpolation.
Each check reads a field through the per-slice tables of a
``grid.SliceTables`` (the ``*_reads`` functions name them), which a run
takes as the march goes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Mapping

import numpy as np
from numpy.typing import NDArray

from .grid import Cylinder, GridSpec, SliceRead, SliceTables, Window, in_slice_order
from .hamiltonians import CoercivityEnvelope
from .solver import ResidualReport, ResidualTerm

__all__ = [
    "LATE_WINDOW",
    "UNIT_CYLINDER",
    "UPPER_HALF",
    "RecurrenceFit",
    "LemmaVerdict",
    "cutoff_time",
    "truncated_energy",
    "energy_ladder",
    "ladder_reads",
    "recurrence_fit",
    "recurrence_orbit",
    "fast_convergence_threshold",
    "delta_constant",
    "lemma_one_check",
    "lemma_one_reads",
    "lemma_two_check",
    "lemma_two_reads",
    "lemma_two_terms",
    "upper_preconditions",
    "upper_reads",
]


# The lemma windows: the unit cylinder ``[-2, 2] x B(1)``, its upper half
# ``[0, 2] x B(1)`` and its late window ``[1, 2] x B(1)``.
UNIT_CYLINDER = Cylinder(-2.0, 2.0, 1.0)
UPPER_HALF = Cylinder(0.0, 2.0, 1.0)
LATE_WINDOW = Cylinder(1.0, 2.0, 1.0)


def cutoff_time(level: int) -> float:
    """Truncation threshold and time-window start ``1 - 2^-level``."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return 1.0 - 2.0 ** (-level)


def truncated_energy(
    tables: SliceTables, level: int, env: CoercivityEnvelope
) -> float:
    """Energy of the level-``k`` truncation on ``[1 - 2^-k, 2] x B(1)``, from
    the tables of :func:`ladder_reads` (``k`` up to their depth)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    spec, cutoff = tables.spec, cutoff_time(level)
    win = Window.covering(spec, Cylinder(cutoff, 2.0, 1.0))
    first = _ladder_start(spec, cutoff)
    sums = tables.table("excess", win.radius, (cutoff,), first)[win.slices]
    sup_term = float((sums * spec.cell_volume).max())
    weighted = win.weighted_slices()
    grads = tables.table("gradient", win.radius, (cutoff, env.p), first)[weighted]
    return sup_term + in_slice_order(win.weights[weighted] * grads)


def _ladder_start(spec: GridSpec, cutoff: float) -> int:
    """The first slice a level window ``[cutoff, 2]`` reads: the slice
    before its first, which can own part of it."""
    return Window.slice_range(spec, cutoff, 2.0, pad=1).start


def ladder_reads(spec: GridSpec, k_max: int, env: CoercivityEnvelope) -> list[SliceRead]:
    """The tables :func:`energy_ladder` reads on ``spec`` up to ``k_max``
    under ``env``: each level's excess and the ``|grad|^p`` of its
    truncation, on the slices of the level's window."""
    return [SliceRead(kind, 1.0, arg, first=_ladder_start(spec, cutoff_time(k)))
            for k in range(1, k_max + 1)
            for kind, arg in (("excess", (cutoff_time(k),)),
                              ("gradient", (cutoff_time(k), env.p)))]


def energy_ladder(
    tables: SliceTables, k_max: int, env: CoercivityEnvelope
) -> NDArray[np.float64]:
    """The truncated energies ``U_1..U_k_max`` under ``env``, from the
    tables of :func:`ladder_reads`."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return np.array([truncated_energy(tables, k, env) for k in range(1, k_max + 1)])


@dataclass(frozen=True)
class RecurrenceFit:
    """Smallest constant making ``U_k <= D * U_{k-1}^(1 + p/N)`` hold on a ladder."""

    d_fit: float | None
    ratios: tuple[float, ...]
    all_zero: bool


def recurrence_fit(energies: NDArray[np.float64], beta: float) -> RecurrenceFit:
    """The fit of ``U_k <= D * U_{k-1}^(1 + beta)`` to a ladder's
    ``energies``, with ``beta = p/N``."""
    ratios = tuple(float(curr / prev ** (1.0 + beta))
                   for prev, curr in zip(energies[:-1], energies[1:]) if prev > 0.0)
    all_zero = bool(np.all(energies == 0.0))
    d_fit = max(ratios) if ratios else (0.0 if all_zero else None)
    return RecurrenceFit(d_fit=d_fit, ratios=ratios, all_zero=all_zero)


def recurrence_orbit(
    d: float, beta: float, a0: float, steps: int
) -> NDArray[np.float64]:
    """Iterate ``a_{k+1} = d * a_k^(1 + beta)`` from ``a0``."""
    if d <= 0.0 or beta <= 0.0:
        raise ValueError("need d > 0 and beta > 0")
    out = np.empty(steps + 1)
    out[0] = a0
    for i in range(steps):
        out[i + 1] = d * out[i] ** (1.0 + beta)
    return out


def fast_convergence_threshold(d: float, beta: float) -> float:
    """Largest safe entry value ``(1/2) * d^(-1/beta)`` for the recurrence."""
    if d <= 0.0 or beta <= 0.0:
        raise ValueError("need d > 0 and beta > 0")
    return 0.5 * d ** (-1.0 / beta)


def delta_constant(eps0: float, lam: float) -> float:
    """Entry smallness constant ``eps0 / (2 lam (1 + lam))``."""
    if eps0 <= 0.0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if lam < 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}")
    return eps0 / (2.0 * lam * (1.0 + lam))


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of one hypothesis-implies-conclusion check.

    ``hypotheses`` and ``conclusions`` map names to bounds ``(value, rel,
    threshold)``, ``rel`` a key of ``RELATIONS`` and any tolerance inside
    ``threshold``; they set the ``*_values``, ``*_thresholds`` and
    ``*_satisfied`` fields.  ``status``: ``"refuted"`` only when the
    preconditions held, the hypotheses held, and the conclusion failed; a
    failed precondition is ``"precondition-violated"`` because the
    implication says nothing there, and a failed hypothesis ``"vacuous"``.
    """

    RELATIONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt}
    name: str
    preconditions: dict[str, bool]
    hypotheses: InitVar[dict[str, tuple[float, str, float]]]
    conclusions: InitVar[dict[str, tuple[float, str, float]]]
    tolerances: dict[str, float]
    cell_width: float
    diagnostics: dict = field(default_factory=dict)
    hypothesis_values: dict[str, float] = field(init=False)
    hypothesis_thresholds: dict[str, float] = field(init=False)
    hypothesis_satisfied: bool = field(init=False)
    conclusion_values: dict[str, float] = field(init=False)
    conclusion_thresholds: dict[str, float] = field(init=False)
    conclusion_satisfied: bool = field(init=False)
    status: str = field(init=False)

    def __post_init__(self, hypotheses, conclusions) -> None:
        for side, bounds in (("hypothesis", hypotheses), ("conclusion", conclusions)):
            object.__setattr__(self, f"{side}_values",
                               {k: v for k, (v, _, _) in bounds.items()})
            object.__setattr__(self, f"{side}_thresholds",
                               {k: t for k, (_, _, t) in bounds.items()})
            object.__setattr__(self, f"{side}_satisfied", all(
                self.RELATIONS[rel](v, t) for v, rel, t in bounds.values()))
        if not all(self.preconditions.values()):
            status = "precondition-violated"
        elif not self.hypothesis_satisfied:
            status = "vacuous"
        else:
            status = "pass" if self.conclusion_satisfied else "refuted"
        object.__setattr__(self, "status", status)


def lemma_one_check(
    tables: SliceTables,
    env: CoercivityEnvelope,
    delta: float,
    conclusion_tol: float | None = None,
) -> LemmaVerdict:
    """Small positive mass on ``[0,2] x B(1)`` forces ``f <= 1`` on ``[1,2] x B(1)``.

    Hypothesis: the integral of ``f_+`` over ``[0, 2] x B(1)`` is at most
    ``delta``.  Conclusion checked at cell centers with a tolerance that
    defaults to the largest one-cell jump of ``f`` in the conclusion window.
    ``tables`` holds :func:`lemma_one_reads` of ``f``.
    """
    spec = tables.spec
    plus_mass = tables.integral(Window.covering(spec, UPPER_HALF), above=0.0)
    late = Window(spec, LATE_WINDOW)
    sup_late = tables.max(late)
    tol = tables.one_cell(late) if conclusion_tol is None else conclusion_tol
    return LemmaVerdict(
        name="small-mass-implies-bounded",
        preconditions={},
        hypotheses={"plus_mass": (plus_mass, "<=", delta)},
        conclusions={"late_sup": (sup_late, "<=", 1.0 + tol)},
        tolerances={"late_sup": tol},
        cell_width=spec.cell_width,
    )


def lemma_one_reads() -> list[SliceRead]:
    """The tables :func:`lemma_one_check` reads: the positive part's sums
    and the extrema and jumps of the unit ball."""
    return [SliceRead("excess", UPPER_HALF.radius, (0.0,)), *upper_reads()]


def upper_reads(negated: bool = False) -> list[SliceRead]:
    """The unit ball's maxima (of ``-f`` when ``negated``) and its jumps:
    what :func:`upper_preconditions` and the late windows read."""
    return [SliceRead("max", UNIT_CYLINDER.radius, negated=negated),
            SliceRead("jumps", UNIT_CYLINDER.radius)]


def lemma_two_terms(env: CoercivityEnvelope) -> list[ResidualTerm]:
    """The residual lemma two reads: the subsolution inequality's at
    ``env``'s default coefficients ``1/lam`` and ``lam``."""
    return [ResidualTerm(1.0 / env.lam, env.lam)]


def lemma_two_reads() -> list[SliceRead]:
    """The tables :func:`lemma_two_check` reads: the unit ball's level
    sets at 0 and 1 and the excess over 1, beside :func:`upper_reads`."""
    unit = UNIT_CYLINDER.radius
    return [*upper_reads(), SliceRead("count", unit, (0.0, -math.inf, 0.0, True)),
            SliceRead("count", unit, (0.0, 0.0, 1.0, False)),
            SliceRead("excess", UPPER_HALF.radius, (1.0,))]


def upper_preconditions(
    tables: SliceTables, win: Window, terms: list[ResidualTerm],
    residuals: Mapping[ResidualTerm, ResidualReport], residual_tol: float | None,
) -> tuple[dict, dict, dict]:
    """The preconditions of a check from the upper side on ``win``: ``f <=
    2`` up to its one-cell oscillation there, and the residual of the one
    term in ``terms`` at most ``residual_tol`` (the grid's by default)
    inside the ball.  Returns the preconditions, the diagnostics (``sup``,
    ``subsolution_residual``) and the tolerances (``bounded_by_two``,
    ``residual``)."""
    sup_all = tables.max(win)
    bound_tol = tables.one_cell(win)
    tol = tables.spec.residual_tol if residual_tol is None else residual_tol
    [term] = terms
    worst = residuals[term].ball_max
    return (
        {"bounded_by_two": sup_all <= 2.0 + bound_tol, "subsolution": worst <= tol},
        {"sup": sup_all, "subsolution_residual": worst},
        {"bounded_by_two": bound_tol, "residual": tol},
    )


def lemma_two_check(
    tables: SliceTables,
    env: CoercivityEnvelope,
    alpha: float,
    delta: float,
    residuals: Mapping[ResidualTerm, ResidualReport],
    residual_tol: float | None = None,
) -> LemmaVerdict:
    """Mostly-nonpositive fields with a thin middle layer have tiny mass above 1.

    On ``[-2, 2] x B(1)``: if ``|{f <= 0}|`` is at least half the cylinder
    and ``|{0 < f < 1}|`` is at most ``alpha``, then the integral of
    ``(f - 1)_+`` over ``[0, 2] x B(1)`` stays below ``delta / 2``.

    Preconditions: ``f <= 2`` on the cylinder, and the one-sided
    subsolution residual stays below ``residual_tol`` inside the ball; its
    report is the one ``residuals`` maps :func:`lemma_two_terms` to (on
    ``f``, the unit ball as the mask).  The conclusion is only meaningful
    for genuine subsolutions, so a failed precondition is reported as its
    own status rather than a refutation.  ``tables`` holds
    :func:`lemma_two_reads` of ``f``.
    """
    spec = tables.spec
    win = Window.covering(spec, UNIT_CYLINDER)
    if env.p >= spec.dimension:
        raise ValueError(
            f"the machinery needs p < N, got p={env.p}, N={spec.dimension}"
        )
    preconditions, diagnostics, tolerances = upper_preconditions(
        tables, win, lemma_two_terms(env), residuals, residual_tol)
    diagnostics["subsolution_tol"] = tolerances.pop("residual")

    total = win.volume
    zero_mass = tables.measure(win, hi=0.0, closed_upper=True)
    middle_mass = tables.measure(win, lo=0.0, hi=1.0)

    above_mass = tables.integral(Window(spec, UPPER_HALF), above=1.0)
    return LemmaVerdict(
        name="measure-to-mass-improvement",
        preconditions=preconditions,
        hypotheses={"zero_set": (zero_mass, ">=", 0.5 * total),
                    "middle_set": (middle_mass, "<=", alpha)},
        conclusions={"above_mass": (above_mass, "<", 0.5 * delta)},
        tolerances=tolerances,
        cell_width=spec.cell_width,
        diagnostics=diagnostics,
    )
