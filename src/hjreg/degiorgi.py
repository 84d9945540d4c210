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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .grid import (
    Cylinder,
    GridSpec,
    ScalarField,
    Window,
    gradient_norm_p_rows,
    in_slice_order,
    level_set_measure,
    one_cell_oscillation,
    per_slice,
    to_json,
)
from .hamiltonians import CoercivityEnvelope
from .solver import residual_subsolution

__all__ = [
    "LadderEntry",
    "EnergyLadder",
    "RecurrenceFit",
    "LemmaVerdict",
    "cutoff_time",
    "truncate",
    "truncated_energy",
    "energy_ladder",
    "recurrence_fit",
    "recurrence_orbit",
    "fast_convergence_threshold",
    "delta_constant",
    "lemma_one_check",
    "lemma_two_check",
]


def cutoff_time(level: int) -> float:
    """Truncation threshold and time-window start ``1 - 2^-level``."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    return 1.0 - 2.0 ** (-level)


def truncate(f: ScalarField, level: int) -> ScalarField:
    """Positive part above the level-``k`` threshold: ``(f - (1 - 2^-k))_+``."""
    return ScalarField(f.spec, np.maximum(f.values - cutoff_time(level), 0.0))


def _unit_window(spec: GridSpec, t_lo: float, t_hi: float) -> Window:
    """Window of ``[t_lo, t_hi] x B(0, 1)``; the grid must cover it."""
    cyl = Cylinder(t_lo=t_lo, t_hi=t_hi, center=(0.0,) * spec.dimension, radius=1.0)
    Window.require_cover(spec, cyl)
    return Window(spec, cyl)


def truncated_energy(
    f: ScalarField, level: int, env: CoercivityEnvelope
) -> float:
    """Energy of the level-``k`` truncation on ``[1 - 2^-k, 2] x B(1)``."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    cutoff = cutoff_time(level)
    win = _unit_window(f.spec, cutoff, 2.0)
    vol = f.spec.cell_volume
    sup_term = max(
        float((np.maximum(block - cutoff, 0.0).sum(axis=1) * vol).max())
        for block in win.rows(f.values)
    )
    cells = np.flatnonzero(win.mask)
    grads = []
    for lo, hi in win.blocks(weighted=True):
        trunc = f.values[lo:hi] - cutoff
        np.maximum(trunc, 0.0, out=trunc)
        grads.append(gradient_norm_p_rows(trunc, f.spec, env.p, cells))
    grad_term = in_slice_order(win.weights[win.weighted_slices()] * per_slice(grads))
    return sup_term + grad_term


@dataclass(frozen=True)
class LadderEntry:
    level: int
    cutoff: float
    energy: float


@dataclass(frozen=True)
class EnergyLadder:
    """Truncated energies for levels ``1..k_max`` under one envelope."""

    env: CoercivityEnvelope
    entries: tuple[LadderEntry, ...]

    def energies(self) -> NDArray[np.float64]:
        return np.array([e.energy for e in self.entries])


def energy_ladder(
    f: ScalarField, k_max: int, env: CoercivityEnvelope
) -> EnergyLadder:
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    entries = tuple(
        LadderEntry(level=k, cutoff=cutoff_time(k),
                    energy=truncated_energy(f, k, env))
        for k in range(1, k_max + 1)
    )
    return EnergyLadder(env=env, entries=entries)


@dataclass(frozen=True)
class RecurrenceFit:
    """Smallest constant making ``U_k <= D * U_{k-1}^(1 + p/N)`` hold on a ladder."""

    d_fit: float | None
    ratios: tuple[float, ...]
    all_zero: bool


def recurrence_fit(ladder: EnergyLadder, dimension: int) -> RecurrenceFit:
    beta = ladder.env.p / dimension
    energies = ladder.energies()
    ratios: list[float] = []
    for prev, curr in zip(energies[:-1], energies[1:]):
        if prev > 0.0:
            ratios.append(float(curr / prev ** (1.0 + beta)))
    all_zero = bool(np.all(energies == 0.0))
    if ratios:
        d_fit: float | None = max(ratios)
    else:
        d_fit = 0.0 if all_zero else None
    return RecurrenceFit(d_fit=d_fit, ratios=tuple(ratios), all_zero=all_zero)


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

    ``refuted`` is only claimed when the preconditions held, the hypotheses
    held, and the conclusion failed; a failed precondition is reported as its
    own status because the implication says nothing there.
    """

    name: str
    preconditions: dict[str, bool]
    hypothesis_values: dict[str, float]
    hypothesis_thresholds: dict[str, float]
    hypothesis_satisfied: bool
    conclusion_values: dict[str, float]
    conclusion_thresholds: dict[str, float]
    conclusion_satisfied: bool
    tolerances: dict[str, float]
    cell_width: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def preconditions_ok(self) -> bool:
        return all(self.preconditions.values())

    @property
    def refuted(self) -> bool:
        return (
            self.preconditions_ok
            and self.hypothesis_satisfied
            and not self.conclusion_satisfied
        )

    @property
    def vacuous(self) -> bool:
        return self.preconditions_ok and not self.hypothesis_satisfied

    @property
    def status(self) -> str:
        if not self.preconditions_ok:
            return "precondition-violated"
        if self.refuted:
            return "refuted"
        if self.vacuous:
            return "vacuous"
        return "pass"

    def to_json_dict(self) -> dict:
        return {**to_json(self), "status": self.status}


def lemma_one_check(
    f: ScalarField,
    env: CoercivityEnvelope,
    delta: float,
    conclusion_tol: float | None = None,
) -> LemmaVerdict:
    """Small positive mass on ``[0,2] x B(1)`` forces ``f <= 1`` on ``[1,2] x B(1)``.

    Hypothesis: the integral of ``f_+`` over ``[0, 2] x B(1)`` is at most
    ``delta``.  Conclusion checked at cell centers with a tolerance that
    defaults to the largest one-cell jump of ``f`` in the conclusion window.
    """
    spec = f.spec
    plus_mass = _unit_window(spec, 0.0, 2.0).integral(np.maximum(f.values, 0.0))
    late = _unit_window(spec, 1.0, 2.0)
    sup_late = late.max(f.values)
    tol = (
        one_cell_oscillation(f, late.cylinder)
        if conclusion_tol is None
        else conclusion_tol
    )
    return LemmaVerdict(
        name="small-mass-implies-bounded",
        preconditions={},
        hypothesis_values={"plus_mass": plus_mass},
        hypothesis_thresholds={"plus_mass": delta},
        hypothesis_satisfied=plus_mass <= delta,
        conclusion_values={"late_sup": sup_late},
        conclusion_thresholds={"late_sup": 1.0},
        conclusion_satisfied=sup_late <= 1.0 + tol,
        tolerances={"late_sup": tol},
        cell_width=spec.cell_width,
    )


def lemma_two_check(
    f: ScalarField,
    env: CoercivityEnvelope,
    alpha: float,
    delta: float,
    residual_tol: float | None = None,
) -> LemmaVerdict:
    """Mostly-nonpositive fields with a thin middle layer have tiny mass above 1.

    On ``[-2, 2] x B(1)``: if ``|{f <= 0}|`` is at least half the cylinder
    and ``|{0 < f < 1}|`` is at most ``alpha``, then the integral of
    ``(f - 1)_+`` over ``[0, 2] x B(1)`` stays below ``delta / 2``.

    Preconditions: ``f <= 2`` on the cylinder, and the one-sided
    subsolution residual stays below ``residual_tol`` inside the ball.  The
    conclusion is only meaningful for genuine subsolutions, so a failed
    precondition is reported as its own status rather than a refutation.
    """
    spec = f.spec
    win = _unit_window(spec, -2.0, 2.0)
    if env.p >= spec.dimension:
        raise ValueError(
            f"the machinery needs p < N, got p={env.p}, N={spec.dimension}"
        )
    cyl = win.cylinder
    sup_all = win.max(f.values)
    bound_tol = one_cell_oscillation(f, cyl)
    tol = spec.residual_tol if residual_tol is None else residual_tol
    worst = residual_subsolution(f, env, ball=win.mask, reduce=True).ball_max
    preconditions = {
        "bounded_by_two": sup_all <= 2.0 + bound_tol, "subsolution": worst <= tol,
    }
    diagnostics = {
        "sup": sup_all, "subsolution_residual": worst, "subsolution_tol": tol,
    }

    total = level_set_measure(f, cyl)
    zero_mass = level_set_measure(f, cyl, hi=0.0, closed_upper=True)
    middle_mass = level_set_measure(f, cyl, lo=0.0, hi=1.0)

    above_mass = _unit_window(spec, 0.0, 2.0).integral(
        np.maximum(f.values - 1.0, 0.0)
    )
    return LemmaVerdict(
        name="measure-to-mass-improvement",
        preconditions=preconditions,
        hypothesis_values={"zero_set": zero_mass, "middle_set": middle_mass},
        hypothesis_thresholds={"zero_set": 0.5 * total, "middle_set": alpha},
        hypothesis_satisfied=(zero_mass >= 0.5 * total) and (middle_mass <= alpha),
        conclusion_values={"above_mass": above_mass},
        conclusion_thresholds={"above_mass": 0.5 * delta},
        conclusion_satisfied=above_mass < 0.5 * delta,
        tolerances={"bounded_by_two": bound_tol},
        cell_width=spec.cell_width,
        diagnostics=diagnostics,
    )
