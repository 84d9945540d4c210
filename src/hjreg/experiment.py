"""Scenario assembly: validated configs, check orchestration, reports.

A run solves one initial-data draw under one Hamiltonian and feeds the
trajectory to the enabled checks; an ensemble repeats that over seeded
draws and merges the member reports in index order.  Reports are plain
JSON, written through ``grid.write_json``, with a separable ``timings``
block, so two runs of the same config and seed produce byte-identical
``stable_bytes()``.
"""

from __future__ import annotations

import io
import json
import math
import os
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .degiorgi import (
    UNIT_CYLINDER,
    UPPER_HALF,
    LemmaVerdict,
    delta_constant,
    energy_ladder,
    fast_convergence_threshold,
    ladder_reads,
    lemma_one_check,
    lemma_one_reads,
    lemma_two_check,
    lemma_two_reads,
    lemma_two_terms,
    recurrence_fit,
)
from .grid import ConfigError, Cylinder, GridSpec, ScalarField, SliceRead, SliceScan
from .grid import SliceTables, Window, ball_mask, config_errors, field_from_values
from .grid import from_json, save_snapshot, to_json, write_json
from .hamiltonians import KINDS, CoercivityEnvelope, HamiltonianSpec, coercivity_check
from .initial_data import make_initial_function, read_parameters
from .oscillation import (
    ConstantChain,
    above_reads,
    above_terms,
    below_reads,
    below_terms,
    build_constant_chain,
    oscillation_above_check,
    oscillation_below_check,
)
from .rescale import (
    GAUGE_READS,
    TheoremReport,
    _base_point_cascades,
    base_point_room,
    base_point_slices,
    base_times,
    cascade_status,
    gauge_term,
    holder_estimate,
    records_to_csv,
    theorem_check,
)
from .solver import ResidualRows, ResidualTerm, SolveConfig, SolverError, hopf_lax
from .solver import snap_dt, solve

__all__ = [
    "CHECK_NAMES",
    "ConfigError",
    "EnsembleReport",
    "ExperimentConfig",
    "RunReport",
    "SCHEMA_VERSION",
    "bundled_scenarios",
    "ensemble",
    "parse_config",
    "run",
    "run_directory",
]

SCHEMA_VERSION = "1"

# Reference recurrence prefactor behind the default mass threshold; the
# fitted prefactor of the actual run is reported next to the default so a
# bad reference is visible rather than silent.
_D_REFERENCE = 10.0
# Levels of the energy ladder lemma1 reports the recurrence fit of.
_LADDER_DEPTH = 8

_SWEEPABLE = {"eta": "eta", "coefficient": "coefficient", "lambda": "lam"}


@dataclass(frozen=True)
class InitialDataSpec:
    name: str = "zero"
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        _seed_range("initial_data", self.seed)


@dataclass(frozen=True)
class ChainSettings:
    """Either a fixed measure threshold or a descending candidate search.
    A key that the mode does not read (see ``READS``) must keep its default."""

    READS = {"fixed": ("mode", "alpha"), "empirical": ("mode", "candidates")}
    alpha: float | None = 1.0
    mode: str = "fixed"
    candidates: tuple[float, ...] = (4.0, 2.0, 1.0, 0.5, 0.25)

    def __post_init__(self) -> None:
        if self.mode not in self.READS:
            raise ConfigError(f"unknown chain mode {self.mode!r}")
        for f in fields(self):
            unread = f.name not in self.READS[self.mode]
            if unread and getattr(self, f.name) != f.default:
                raise ConfigError(f"the {self.mode} chain mode does not read {f.name!r}")
        if self.mode == "fixed":
            if self.alpha is None or self.alpha <= 0.0:
                raise ConfigError(
                    f"fixed chain mode needs alpha > 0, got {self.alpha}"
                )
        else:
            if not self.candidates or any(a <= 0.0 for a in self.candidates):
                raise ConfigError("empirical chain mode needs positive candidates")
            # the search picks its own threshold
            object.__setattr__(self, "alpha", None)
        object.__setattr__(
            self, "candidates", tuple(sorted(self.candidates, reverse=True))
        )

    def to_json_dict(self) -> dict:
        out = to_json(self)
        return {key: out[key] for key in self.READS[self.mode]}


def _at_least(where: str, opts, **lows) -> None:
    """Reject any named field of ``opts`` below its lower bound."""
    for name, low in lows.items():
        value = getattr(opts, name)
        if value < low:
            raise ConfigError(f"{where} needs {name} >= {low}, got {value}")


def _seed_range(where: str, seed: int) -> None:
    """Reject a seed outside ``[0, 2**64)``, the range of the ensemble's
    spawned ``uint64`` member seeds."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{where} needs 0 <= seed < 2**64, got {seed}")


@dataclass(frozen=True)
class _ZoomSettings:
    """The keys the cascade and theorem sections share.  ``mode`` stays
    readable because configs write it, but every zoom re-solves, so
    ``"resolve"`` is its only value."""

    section: ClassVar[str]
    levels: int = 4
    mode: str = "resolve"
    working_cells: int = 40
    working_slices: int = 64

    def __post_init__(self) -> None:
        if self.mode != "resolve":
            raise ConfigError(f"unknown {self.section} mode {self.mode!r}; the "
                              "only mode is 'resolve'")
        _at_least(self.section, self, levels=0, working_cells=4, working_slices=1)


@dataclass(frozen=True)
class CascadeSettings(_ZoomSettings):
    """One cascade, at ``base_time`` (the grid's end by default) and
    ``base_point`` (the origin by default)."""

    section = "cascade"
    base_time: float | None = None
    base_point: tuple[float, ...] | None = None


@dataclass(frozen=True)
class TheoremSettings(_ZoomSettings):
    """Cascades at ``base_times``' lattice from ``delta_time`` (the grid's
    middle by default), ``points_per_axis`` per axis."""

    section = "theorem"
    delta_time: float | None = None
    points_per_axis: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        _at_least(self.section, self, points_per_axis=1)


@dataclass(frozen=True)
class OracleSettings:
    refinements: int = 1
    max_error: float = 0.02
    min_order: float = 0.4
    window: float = 0.5
    time: float | None = None

    def __post_init__(self) -> None:
        _at_least("oracle", self, refinements=1)
        if not 0.0 < self.window <= 1.0:
            raise ConfigError("oracle window must lie in (0, 1]")
        if self.max_error <= 0.0:
            raise ConfigError(f"oracle needs max_error > 0, got {self.max_error}")


@dataclass(frozen=True)
class SweepSettings:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in _SWEEPABLE:
            raise ConfigError(
                f"cannot sweep {self.parameter!r}; "
                f"sweepable: {', '.join(sorted(_SWEEPABLE))}"
            )
        if not self.values:
            raise ConfigError("sweep needs at least one value")


@dataclass(frozen=True)
class _Tolerances:
    """The ``tolerances`` keys; a key not given leaves its check's default."""

    delta: float = 0.0
    conclusion: float = 0.0
    residual: float = 0.0

    def __post_init__(self) -> None:
        for key, value in to_json(self).items():
            if value < 0.0:
                raise ValueError(f"{key} must be >= 0, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated scenario.  ``envelope`` defaults to the Hamiltonian's
    declared one."""

    scenario: str
    grid: GridSpec
    hamiltonian: HamiltonianSpec
    envelope: CoercivityEnvelope | None = None
    initial_data: InitialDataSpec = InitialDataSpec()
    chain: ChainSettings = ChainSettings()
    checks: tuple[str, ...] = ()
    output_dir: str | None = None
    tolerances: dict = field(default_factory=dict)
    solve: SolveConfig = SolveConfig()
    cascade: CascadeSettings = CascadeSettings()
    theorem: TheoremSettings = TheoremSettings()
    oracle: OracleSettings | None = None
    sweep: SweepSettings | None = None
    description: str = ""

    def __post_init__(self) -> None:
        # The label names the run directory under the output root.
        label = self.scenario
        if label in ("", ".", "..") or Path(label).name != label:
            raise ConfigError(f"scenario {label!r} must be a single path component")
        for name in self.checks:
            if name not in CHECK_NAMES:
                raise ConfigError(
                    f"unknown check {name!r}; valid: {', '.join(CHECK_NAMES)}"
                )
        read = from_json(_Tolerances, self.tolerances, "tolerances")
        object.__setattr__(
            self, "tolerances", {key: getattr(read, key) for key in self.tolerances}
        )
        # the parameters are checked here, where the grid is known
        init = self.initial_data
        read_parameters(self.grid, init.name, init.parameters)
        if self.envelope is None:
            object.__setattr__(
                self, "envelope", self.hamiltonian.declared_envelope()
            )

    def to_json_dict(self) -> dict:
        out = to_json(self)
        # these two write only the keys their kind or mode reads
        out.update(hamiltonian=self.hamiltonian.to_config(),
                   chain=self.chain.to_json_dict())
        for key in ("oracle", "sweep"):
            if out[key] is None:
                del out[key]
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """Read and gate a config; the envelope's ``p`` defaults to the
        Hamiltonian's."""
        cfg = from_json(ExperimentConfig, data, "config", envelope=None)
        section = data.get("envelope")
        if section is not None:
            if isinstance(section, dict):
                section = {"p": cfg.hamiltonian.p, **section}
            envelope = from_json(CoercivityEnvelope, section, "envelope")
            cfg = replace(cfg, envelope=envelope)
        _check_gates(cfg)
        return cfg


def _sweep_variants(cfg: ExperimentConfig) -> list[tuple[str, HamiltonianSpec]]:
    """``(label, hamiltonian)`` per solve: one per sweep value, or the
    config's own Hamiltonian with an empty label.  Two values with one
    label are a ``ValueError``: their outputs would share paths."""
    if cfg.sweep is None:
        return [("", cfg.hamiltonian)]
    attr = _SWEEPABLE[cfg.sweep.parameter]
    values: dict[str, float] = {}
    for v in cfg.sweep.values:
        label = f"[{cfg.sweep.parameter}={v:g}]"
        if label in values:
            raise ValueError(f"values {values[label]} and {v} share the label {label}")
        values[label] = v
    return [(label, replace(cfg.hamiltonian, **{attr: v})) for label, v in values.items()]


def _check_gates(cfg: ExperimentConfig) -> None:
    """Cross-section rules that make a config runnable, not just well-formed."""
    grid = cfg.grid
    table = cfg.hamiltonian.table
    if table is not None and table.dimension != grid.dimension:
        raise ConfigError(
            f"hamiltonian table has dimension {table.dimension}, the grid "
            f"{grid.dimension}"
        )
    with np.errstate(over="ignore", divide="ignore"):  # the solver's lattice scale
        if not np.isfinite((0.5 / np.float64(grid.cell_width)) ** cfg.hamiltonian.p):
            raise ConfigError(f"grid cell width {grid.cell_width} is too small: "
                              "(0.5 / cell_width) ** p is not finite")
    if cfg.envelope.p != cfg.hamiltonian.p:
        raise ConfigError(
            f"envelope exponent {cfg.envelope.p} does not match the "
            f"hamiltonian's {cfg.hamiltonian.p}"
        )
    if cfg.checks and cfg.envelope.p >= grid.dimension:
        raise ConfigError(
            f"the truncation machinery needs p < N; got p={cfg.envelope.p}, "
            f"N={grid.dimension} with checks enabled"
        )
    for name in cfg.checks:
        window = _CHECKS[name].window
        if window is None:
            continue
        try:
            Window.require_cover(grid, window)
        except ValueError as err:
            raise ConfigError(f"check {name!r}: {err}") from None
    times = {
        "theorem delta_time":
            cfg.theorem.delta_time if "theorem" in cfg.checks else None,
        "cascade base_time":
            cfg.cascade.base_time if "cascade" in cfg.checks else None,
        "oracle time": None if cfg.oracle is None else cfg.oracle.time,
    }
    for name, t in times.items():
        if t is not None and not grid.t_start < t <= grid.t_end:
            raise ConfigError(f"{name} {t} outside ({grid.t_start}, {grid.t_end}]")
    if "cascade" in cfg.checks:
        x0 = cfg.cascade.base_point
        if x0 is not None:
            if len(x0) != grid.dimension:
                raise ConfigError(
                    f"cascade base_point needs {grid.dimension} coordinates"
                )
            if base_point_room(grid, x0) <= 0.0:
                raise ConfigError(
                    "cascade base_point sits within two cells of the boundary"
                )
    if cfg.oracle is not None:
        if cfg.hamiltonian.kind != "power-law":
            raise ConfigError(
                "the inf-convolution oracle is exact only for the plain "
                f"power law, not {cfg.hamiltonian.kind!r}"
            )
        with config_errors("oracle"):
            grids = _oracle_grids(cfg)
        for grid_l in grids:
            # the two centres nearest 0, by axis_centers' per-entry expression
            middle = (grid_l.cells_per_axis + np.array([-1, 0])) // 2
            centres = -grid_l.half_width + grid_l.cell_width * (middle + 0.5)
            if not np.abs(centres).min() <= cfg.oracle.window * grid_l.half_width:
                raise ConfigError(
                    f"oracle window {cfg.oracle.window} holds no cell center "
                    f"at {grid_l.cells_per_axis} cells per axis"
                )
    if cfg.sweep is not None:
        attr = _SWEEPABLE[cfg.sweep.parameter]
        if attr not in KINDS[cfg.hamiltonian.kind]:
            readers = " or ".join(k for k, reads in KINDS.items() if attr in reads)
            raise ConfigError(
                f"sweeping {cfg.sweep.parameter!r} needs a {readers} hamiltonian"
            )
        with config_errors("sweep"):
            _sweep_variants(cfg)
    if cfg.chain.mode == "fixed" and _needs_chain(cfg):
        try:
            _build_chain(cfg)
        except ValueError as err:
            raise ConfigError(f"chain alpha {cfg.chain.alpha}: {err}") from None


def parse_config(path: str | Path) -> ExperimentConfig:
    """Load and validate a config file; unknown keys are rejected by name."""
    p = Path(path)
    if not p.exists():
        bundled = _bundled_path(str(path))
        if bundled is None:
            raise ConfigError(
                f"config not found: {path} is neither a file nor a "
                "bundled scenario"
            )
        p = bundled
    try:
        with open(p) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p}: invalid JSON at line {err.lineno}: {err.msg}") \
            from None
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return ExperimentConfig.from_json_dict(data)


def _bundled_path(name: str) -> Path | None:
    stem = name[:-5] if name.endswith(".json") else name
    base = resources.files("hjreg") / "scenarios" / f"{stem}.json"
    try:
        if base.is_file():
            return Path(str(base))
    except (OSError, TypeError):
        return None
    return None


def bundled_scenarios() -> tuple[str, ...]:
    """Names of the scenario configs shipped with the package."""
    base = resources.files("hjreg") / "scenarios"
    names = [entry.name[:-5] for entry in base.iterdir()
             if entry.name.endswith(".json")]
    return tuple(sorted(names))


@dataclass(frozen=True)
class RunReport:
    """Everything one run produced, minus the field data itself."""

    version: str
    scenario: str
    status: str
    config: dict
    chain: dict | None
    chain_search: tuple[dict, ...] | None
    checks: tuple[dict, ...]
    artifacts: tuple[str, ...]
    error: dict | None
    timings: dict

    def to_json_dict(self) -> dict:
        """The report's JSON (see ``grid.to_json``) without ``timings``."""
        out = to_json(self)
        del out["timings"]
        return out

    def stable_bytes(self) -> bytes:
        """``report.json``'s bytes with the timings block dropped; identical
        across reruns."""
        text = io.StringIO()
        write_json(self.to_json_dict(), text)
        return text.getvalue().encode()


@dataclass(frozen=True)
class EnsembleReport:
    """Member reports merged in index order plus refutation bookkeeping."""

    version: str
    scenario: str
    status: str
    config: dict
    count: int
    seed: int
    member_seeds: tuple[int, ...]
    counts: dict
    chain_search: tuple[dict, ...] | None
    members: tuple[dict, ...]
    artifacts: tuple[str, ...]
    timings: dict

    to_json_dict = RunReport.to_json_dict
    stable_bytes = RunReport.stable_bytes


def _default_delta(cfg: ExperimentConfig) -> float:
    if "delta" in cfg.tolerances:
        return cfg.tolerances["delta"]
    eps0 = fast_convergence_threshold(
        _D_REFERENCE, cfg.envelope.p / cfg.grid.dimension
    )
    return delta_constant(eps0, cfg.envelope.lam)


def _build_chain(cfg: ExperimentConfig) -> ConstantChain:
    """The constant chain at the config's fixed ``alpha``."""
    env, alpha = cfg.envelope, float(cfg.chain.alpha)  # type: ignore[arg-type]
    return build_constant_chain(cfg.grid.dimension, env.p, 2.0 * env.lam, alpha)


def _needs_chain(cfg: ExperimentConfig) -> bool:
    return any(_CHECKS[name].reads_chain for name in cfg.checks)


def _check_lemma1(cfg, traj, chain, hamiltonian, outputs, label, tables,
                  residuals) -> dict:
    delta = _default_delta(cfg)
    verdict = lemma_one_check(
        tables, cfg.envelope, delta,
        conclusion_tol=cfg.tolerances.get("conclusion"),
    )
    report = {**to_json(verdict), "delta": delta}
    try:
        energies = energy_ladder(tables, _LADDER_DEPTH, cfg.envelope)
        fit = recurrence_fit(energies, cfg.envelope.p / cfg.grid.dimension)
        report["recurrence"] = {
            "d_fit": fit.d_fit,
            "d_reference": _D_REFERENCE,
            "all_zero": fit.all_zero,
        }
    except ValueError:
        # ladder windows may not fit inside the configured grid; the check
        # itself already passed coverage gates, so just skip the extras
        pass
    return report


def _check_lemma2(cfg, traj, chain, hamiltonian, outputs, label, tables,
                  residuals) -> dict:
    delta = _default_delta(cfg)
    verdict = lemma_two_check(
        tables, cfg.envelope, chain.middle_threshold, delta, residuals,
        residual_tol=cfg.tolerances.get("residual"),
    )
    return {**to_json(verdict), "delta": delta}


def _check_oscillation(
    cfg, traj, chain, hamiltonian, outputs, label, tables, residuals,
    below: bool = False,
) -> LemmaVerdict:
    check = oscillation_below_check if below else oscillation_above_check
    return check(
        tables, chain, residuals,
        residual_tol=cfg.tolerances.get("residual"),
        conclusion_tol=cfg.tolerances.get("conclusion"),
    )


def _check_cascade(cfg, traj, chain, hamiltonian, outputs, label, tables,
                   residuals) -> dict:
    opts = cfg.cascade
    spec = traj.spec
    t0 = _cascade_time(cfg)
    x0 = opts.base_point or (0.0,) * spec.dimension
    gauged, gamma, [(tau, rho, records, aborted)] = _base_point_cascades(
        traj.field, chain, cfg.envelope, [(t0, x0)], hamiltonian, opts, cfg.solve,
        tables, residuals[gauge_term(spec, cfg.envelope)])
    outputs[f"cascades/base{label}.csv"] = records_to_csv(records)
    return {
        "status": cascade_status(records, aborted),
        "base_time": t0,
        "base_point": x0,
        "gauged": gauged,
        "gamma": gamma,
        "tau": tau,
        "rho": rho,
        "records": records,
        "estimate": holder_estimate(records, chain),
        "aborted": aborted,
    }


def _check_theorem(
    cfg, traj, chain, hamiltonian, outputs, label, tables, residuals
) -> TheoremReport:
    return theorem_check(traj.field, _theorem_delta(cfg), chain, cfg.envelope,
                         hamiltonian, cfg.theorem, cfg.solve, tables,
                         residuals[gauge_term(cfg.grid, cfg.envelope)])


def _cascade_time(cfg: ExperimentConfig) -> float:
    t0 = cfg.cascade.base_time
    return cfg.grid.t_end if t0 is None else t0


def _theorem_delta(cfg: ExperimentConfig) -> float:
    delta_time, spec = cfg.theorem.delta_time, cfg.grid
    if delta_time is None:
        return spec.t_start + 0.5 * (spec.t_end - spec.t_start)
    return delta_time


class _Check(NamedTuple):
    """``run(cfg, traj, chain, hamiltonian, outputs, label, tables,
    residuals)`` returns the check's report, a dataclass or dict whose
    ``to_json`` carries its ``"status"``; ``window`` is the cylinder its
    statement fixes, if any: the module constant its check covers first,
    which the config gate covers too.  ``base_times(cfg)`` lists the times
    the check zooms at, so the solve keeps their ``base_point_slices``.
    ``reads(cfg, chain)`` lists the per-slice tables the check reads and
    ``terms(cfg, chain)`` the residual terms it reads over the unit ball
    (a zooming check's, its gauge's): the march takes both for every
    check of the run in one :class:`SliceScan`, and ``run`` gets
    ``tables``, the :class:`SliceTables`, and ``residuals``, each term's
    report."""

    run: Callable[..., object]
    window: Cylinder | None
    reads_chain: bool
    base_times: Callable[[ExperimentConfig], list[float]] | None = None
    reads: Callable[[ExperimentConfig, ConstantChain | None],
                    list[SliceRead]] = lambda cfg, chain: []
    terms: Callable[[ExperimentConfig, ConstantChain | None],
                    list[ResidualTerm]] = lambda cfg, chain: []


# Every check a config may enable, in report order.  Runners name the check
# functions in their bodies, so a wrapper rebound over a module global (as
# ``perfbench/spans.py`` does) sees every call.  What a check reads of the
# whole march comes from the tables and residual rows that one scan takes as
# it runs, osc_below's reflected reads and the zooming checks' gauge included.
_GAUGE = dict(reads=lambda cfg, chain: GAUGE_READS,
              terms=lambda cfg, chain: [gauge_term(cfg.grid, cfg.envelope)])
_CHECKS = {
    "lemma1": _Check(_check_lemma1, UPPER_HALF, False,
                     reads=lambda cfg, chain: [
                         *lemma_one_reads(),
                         *ladder_reads(cfg.grid, _LADDER_DEPTH, cfg.envelope)]),
    "lemma2": _Check(_check_lemma2, UNIT_CYLINDER, True,
                     reads=lambda cfg, chain: lemma_two_reads(),
                     terms=lambda cfg, chain: lemma_two_terms(cfg.envelope)),
    "osc_above": _Check(_check_oscillation, UNIT_CYLINDER, True,
                        reads=lambda cfg, chain: above_reads(chain),
                        terms=lambda cfg, chain: above_terms(chain)),
    "osc_below": _Check(partial(_check_oscillation, below=True), UNIT_CYLINDER,
                        True, reads=lambda cfg, chain: below_reads(chain),
                        terms=lambda cfg, chain: below_terms(chain)),
    "cascade": _Check(_check_cascade, None, True,
                      lambda cfg: [_cascade_time(cfg)], **_GAUGE),
    "theorem": _Check(_check_theorem, None, True,
                      lambda cfg: base_times(cfg.grid, _theorem_delta(cfg),
                                             cfg.theorem.points_per_axis), **_GAUGE),
}
CHECK_NAMES = tuple(_CHECKS)


def _covers(spec: GridSpec, window: Cylinder | None) -> bool:
    """Whether ``spec`` keeps the coverage rule for ``window`` (no window
    is covered)."""
    if window is not None:
        try:
            Window.require_cover(spec, window)
        except ValueError:
            return False
    return True


def _oracle_grids(cfg: ExperimentConfig) -> list[GridSpec]:
    """The run's own grid, then each refinement, cells and time steps halved."""
    assert cfg.oracle is not None
    spec = cfg.grid
    return [spec] + [
        replace(
            spec,
            cells_per_axis=spec.cells_per_axis * 2**level,
            dt=snap_dt(spec.t_start, spec.t_end, spec.dt / 2**level),
        )
        for level in range(1, cfg.oracle.refinements + 1)
    ]


def _oracle_time(cfg: ExperimentConfig) -> float:
    """The time the oracle compares at: ``oracle.time``, the end of the
    grid by default."""
    assert cfg.oracle is not None
    return cfg.grid.t_end if cfg.oracle.time is None else cfg.oracle.time


def _oracle_slice(cfg: ExperimentConfig, grid: GridSpec) -> int:
    """Index of the slice of ``grid`` nearest the oracle's comparison time."""
    return int(np.argmin(np.abs(grid.times() - _oracle_time(cfg))))


def _oracle_outcome(cfg: ExperimentConfig, base: np.ndarray) -> dict:
    """Refinement study against the inf-convolution.  Level 0 is the run's
    own grid, read from ``base``, the run's slice at the comparison time;
    each refinement is solved here."""
    opts = cfg.oracle
    assert opts is not None
    spec = cfg.grid
    init = cfg.initial_data
    fn = make_initial_function(spec, init.name, init.parameters, init.seed)
    resolutions: list[int] = []
    widths: list[float] = []
    errors: list[float] = []
    got = base
    for level, grid_l in enumerate(_oracle_grids(cfg)):
        ti = _oracle_slice(cfg, grid_l)
        if level > 0:
            # a refinement's solve keeps the one slice the oracle reads
            traj = solve(grid_l, cfg.hamiltonian, fn, cfg.solve,
                         keep=[range(ti, ti + 1)])
            got = traj.field.rows(ti, ti + 1)[0]
            del traj
        elapsed = float(grid_l.times()[ti] - grid_l.t_start)
        centers = grid_l.centers().reshape(-1, grid_l.dimension)
        inner = np.max(np.abs(centers), axis=1) <= opts.window * grid_l.half_width
        pts = centers[inner]
        got = got.reshape(-1)[inner]
        want = hopf_lax(fn, elapsed, pts, cfg.hamiltonian.p)
        resolutions.append(grid_l.cells_per_axis)
        widths.append(grid_l.cell_width)
        errors.append(float(np.abs(got - want).max()))
    # two exact levels have converged (order inf); an exact coarser level
    # before an inexact finer one has not (order -inf)
    pairs = list(zip(errors, errors[1:]))
    orders = [math.inf if b == 0.0 else -math.inf if a == 0.0 else math.log2(a / b)
              for a, b in pairs]
    monotone = all(b < a or a == b == 0.0 for a, b in pairs)
    ok = (
        monotone
        and errors[-1] <= opts.max_error
        and all(o >= opts.min_order for o in orders)
    )
    return {
        "status": "pass" if ok else "refuted",
        "time": _oracle_time(cfg),
        "window": opts.window,
        "resolutions": resolutions,
        "cell_widths": widths,
        "sup_errors": errors,
        "orders": orders,
        "monotone": monotone,
        "max_error": opts.max_error,
        "min_order": opts.min_order,
    }


def _coercivity_outcome(cfg: ExperimentConfig, hamiltonian: HamiltonianSpec) -> dict:
    """Sample the declared envelope of a (possibly swept) Hamiltonian."""
    spec = cfg.grid
    env = hamiltonian.declared_envelope()
    times = np.linspace(spec.t_start, spec.t_end, 5)
    centers = spec.centers().reshape(-1, spec.dimension)
    stride = max(1, len(centers) // 64)
    points = centers[::stride]
    mags = [0.0, 0.25, 1.0, 4.0]
    axes = np.eye(spec.dimension)
    diag = np.full(spec.dimension, 1.0 / math.sqrt(spec.dimension))
    dirs = np.vstack([axes, diag])
    grads = np.concatenate([m * dirs for m in mags])
    report = coercivity_check(hamiltonian, env, [float(t) for t in times],
                              points, grads)
    status = "precondition-violated" if report.violations else "pass"
    return {"status": status, "declared_lambda": env.lam, **to_json(report)}


def _aggregate(statuses: list[str]) -> str:
    if any(s == "refuted" for s in statuses):
        return "refuted"
    if any(s == "error" for s in statuses):
        return "error"
    quiet = {"vacuous", "precondition-violated"}
    if statuses and all(s in quiet for s in statuses):
        return "vacuous"
    return "pass"


def _snapshots(traj) -> dict[str, ScalarField]:
    """The first and last two slices of a trajectory, copied out of it."""
    spec, n = traj.spec, traj.spec.n_slices
    first = replace(spec, t_end=spec.t_start + spec.dt)
    last = replace(spec, t_start=spec.t_end - spec.dt)
    return {
        "snapshots/first_steps": field_from_values(first, traj.field.rows(0, 2)),
        "snapshots/last_steps": field_from_values(last, traj.field.rows(n - 2, n)),
    }


def _artifact_names(outputs: dict) -> tuple[str, ...]:
    """The files ``_write`` makes of ``outputs``, relative to the run directory."""
    pair = (".csv", ".json")
    return tuple(path + suffix for path, payload in outputs.items()
                 for suffix in (pair if isinstance(payload, ScalarField) else ("",)))


def _compute(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Solve, check, and report one config without touching the disk: the
    one-member case of :func:`_compute_members`.

    Returns the report and the run's outputs: each artifact path, relative
    to the run directory, mapped to what ``_write`` puts there (a dict as
    JSON, a text as is, a field as ``save_snapshot``'s ``.csv``/``.json``).
    """
    return _compute_members([cfg])[0]


def _compute_members(jobs: list[ExperimentConfig]) -> list[tuple[RunReport, dict]]:
    """:func:`_compute` of each of ``jobs``, configs that differ only in
    their initial-data seed, in order.

    The members march as one batch (see ``solver.solve``): one
    :class:`SliceScan` fills every member's tables and residual rows, and
    each member's checks read their own through its
    ``Trajectory.member``, ``SliceTables.member`` and
    ``ResidualRows.reports`` views.  When a solve of several members
    aborts, each member is computed on its own, so that each abort keeps
    its message and step index.
    """
    cfg, count = jobs[0], len(jobs)
    timings: list[dict[str, float]] = [{} for _ in jobs]
    checks_out: list[list[dict]] = [[] for _ in jobs]
    outputs: list[dict[str, dict | str | ScalarField]] = [{} for _ in jobs]
    chain = chain_dict = None
    stage = "chain"

    @contextmanager
    def timed(name: str, *members: int):
        """Time the stage ``name`` into the timings of ``members`` (all by
        default), also when it raises."""
        nonlocal stage
        stage, t0 = name, time.perf_counter()
        try:
            yield
        finally:
            for m in members or range(count):
                timings[m][name] = time.perf_counter() - t0

    def record(m: int, name: str, report) -> None:
        checks_out[m].append({"check": name, **to_json(report)})

    def finish(m: int, status: str, error: dict | None = None) -> tuple[RunReport, dict]:
        return RunReport(
            version=SCHEMA_VERSION,
            scenario=cfg.scenario,
            status=status,
            config=jobs[m].to_json_dict(),
            chain=chain_dict,
            chain_search=None,
            checks=tuple(checks_out[m]),
            artifacts=_artifact_names(outputs[m]),
            error=error,
            timings=timings[m],
        ), outputs[m]

    begin = time.perf_counter()
    if _needs_chain(cfg):
        try:
            chain = _build_chain(cfg)
        except ValueError as err:
            return [finish(m, "error", {"stage": "chain", "message": str(err)})
                    for m in range(count)]
        chain_dict = chain.to_json_dict()
        for out in outputs:
            out["chain.json"] = chain_dict
    for member_timings in timings:
        member_timings["chain"] = time.perf_counter() - begin

    fns = [make_initial_function(cfg.grid, init.name, init.parameters, init.seed)
           for init in (job.initial_data for job in jobs)]
    checks = [_CHECKS[name] for name in cfg.checks]
    # a check whose window the grid does not cover raises its coverage error
    # before it reads a table, so the march takes none of its reads
    read_by = [check for check in checks if _covers(cfg.grid, check.window)]
    reads = [read for check in read_by for read in check.reads(cfg, chain)]
    terms = list(dict.fromkeys(term for check in read_by
                               for term in check.terms(cfg, chain)))
    # the solve keeps only the slices the zooms, the snapshots and the
    # oracle read; the other checks read the march as it runs
    zooms = [check.base_times for check in checks if check.base_times is not None]
    keep = [base_point_slices(cfg.grid, chain, t0) for times in zooms
            for t0 in times(cfg)]
    if cfg.sweep is None:
        keep += [range(0, 2), range(cfg.grid.n_slices - 2, cfg.grid.n_slices)]
    if cfg.oracle is not None:
        oracle_ti = _oracle_slice(cfg, cfg.grid)
        keep.append(range(oracle_ti, oracle_ti + 1))
    oracle_bases = [None] * count
    try:
        for label, hamiltonian in _sweep_variants(cfg):
            if cfg.sweep is not None:
                with timed(f"coercivity{label}"):
                    coercivity = _coercivity_outcome(cfg, hamiltonian)
                for m in range(count):
                    record(m, f"coercivity{label}", coercivity)
            with timed(f"solve{label}"):
                tables = SliceTables(cfg.grid, reads, count)
                rows = ResidualRows(cfg.grid, cfg.envelope.p, terms,
                                    ball_mask(cfg.grid, UNIT_CYLINDER.radius), count)
                scan = SliceScan(cfg.grid, [tables, rows], count) if reads or terms else None
                batch = solve(cfg.grid, hamiltonian, fns, cfg.solve, keep, scan)
            for m, job in enumerate(jobs):
                traj = batch.member(m)
                residuals = dict(zip(terms, rows.reports(m)))
                for name, check in zip(cfg.checks, checks):
                    with timed(f"{name}{label}", m):
                        try:
                            report = check.run(job, traj, chain, hamiltonian, outputs[m],
                                               label, tables.member(m), residuals)
                        except (ValueError, RuntimeError) as err:
                            report = {"status": "error", "message": str(err)}
                        record(m, f"{name}{label}", report)
                if cfg.sweep is None:
                    outputs[m].update(_snapshots(traj))
                if cfg.oracle is not None:
                    # a copy, so the oracle holds one slice, not the trajectory
                    oracle_bases[m] = traj.field.rows(oracle_ti, oracle_ti + 1)[0].copy()
            # free this variant's trajectories before the next one solves
            del batch, traj, tables, rows, residuals
        if cfg.oracle is not None:
            for m, job in enumerate(jobs):
                with timed("oracle", m):
                    record(m, "oracle", _oracle_outcome(job, oracle_bases[m]))
    except SolverError as err:
        if count > 1:
            return [_compute(job) for job in jobs]
        return [finish(0, "error", {"stage": stage, "message": str(err),
                                    "step_index": err.step_index})]
    total = time.perf_counter() - begin
    for m in range(count):
        timings[m]["total"] = total
    return [finish(m, _aggregate([c["status"] for c in checks_out[m]]))
            for m in range(count)]


def _write(
    run_dir: Path, report: RunReport | EnsembleReport, outputs: dict
) -> None:
    """Put a computed run on disk: its artifacts, then ``report.json``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in {**outputs, "report.json": report}.items():
        path = run_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, ScalarField):
            save_snapshot(payload, path)
        elif isinstance(payload, str):
            path.write_text(payload)
        else:
            with open(path, "w") as fh:
                write_json(payload, fh)


def run_directory(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    count: int | None = None,
) -> Path:
    """Where a run writes, ``<scenario>-seed<seed>``, or with a member
    ``count`` an ensemble, ``<scenario>-ensemble-seed<seed>-n<count>``.

    The base directory is ``out_dir``, else ``HJREG_OUT_DIR``, else the
    config's ``output_dir``, else ``runs``; ``seed`` defaults to the
    initial-data seed.
    """
    if out_dir is None:
        out_dir = os.environ.get("HJREG_OUT_DIR") or cfg.output_dir or "runs"
    if seed is None:
        seed = cfg.initial_data.seed
    name = f"{cfg.scenario}-seed{seed}"
    if count is not None:
        name = f"{cfg.scenario}-ensemble-seed{seed}-n{count}"
    return Path(out_dir) / name


def _with_overrides(
    cfg: ExperimentConfig, seed: int | None, resolution: int | None
) -> ExperimentConfig:
    """``cfg`` with the run's seed and resolution, read back through
    ``from_json_dict`` so that the overridden config passes every gate;
    ``cfg`` itself when neither is given."""
    if seed is None and resolution is None:
        return cfg
    data = cfg.to_json_dict()
    if seed is not None:
        data["initial_data"]["seed"] = seed
    if resolution is not None:
        with config_errors(f"resolution {resolution}"):
            # the grid's own rule on cells_per_axis runs before the division
            grid = replace(cfg.grid, cells_per_axis=int(resolution))
            scale = cfg.grid.cells_per_axis / grid.cells_per_axis
            dt = snap_dt(grid.t_start, grid.t_end, grid.dt * scale)
            data["grid"] = to_json(replace(grid, dt=dt))
    return ExperimentConfig.from_json_dict(data)


def _search_alpha(cfg: ExperimentConfig, runner, status):
    """Largest candidate threshold that survives without a refutation.

    In empirical chain mode the candidates run in descending order, each
    as a fixed-mode config, until ``status(runner(trial_cfg))`` is not
    ``"refuted"``; when every candidate is refuted the search takes the
    smallest.  Either way the chosen candidate is the last trial run, so
    its outcome is the run itself.  Returns ``(trial_cfg, trials,
    outcome)`` of that trial, with ``trials`` the ``{"alpha", "status"}``
    of every candidate tried.  A fixed-mode ``cfg`` is its own one trial,
    with ``trials`` ``None``.
    """
    if cfg.chain.mode == "fixed":
        return cfg, None, runner(cfg)
    trials: list[dict] = []
    for alpha in cfg.chain.candidates:
        outcome = None  # a refuted trial's outcome is freed before the next runs
        trial_cfg = replace(cfg, chain=ChainSettings(alpha=alpha, mode="fixed"))
        outcome = runner(trial_cfg)
        trials.append({"alpha": alpha, "status": status(outcome)})
        if trials[-1]["status"] != "refuted":
            break
    return trial_cfg, tuple(trials), outcome


def run(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    resolution: int | None = None,
) -> RunReport:
    """Execute one scenario run under a deterministic run-stamped directory."""
    cfg = _with_overrides(config, seed, resolution)
    run_dir = run_directory(cfg, out_dir)
    _, search, (report, outputs) = _search_alpha(
        cfg, _compute, lambda outcome: outcome[0].status
    )
    report = replace(report, chain_search=search)
    _write(run_dir, report, outputs)
    return report


def _run_members(
    cfg: ExperimentConfig, member_seeds: list[int], pool, workers: int
) -> list[tuple[RunReport, dict]]:
    """:func:`_compute_members` of each member's config, in member order:
    one batch, or on ``pool`` one contiguous chunk of members for each of
    ``workers``."""
    jobs = [replace(cfg, initial_data=replace(cfg.initial_data, seed=s))
            for s in member_seeds]
    if pool is None:
        return _compute_members(jobs)
    size = -(-len(jobs) // workers)
    chunks = [jobs[lo:lo + size] for lo in range(0, len(jobs), size)]
    return [member for chunk in pool.map(_compute_members, chunks) for member in chunk]


def _worker_count(workers: int | None) -> int:
    """The ``workers`` argument, else ``HJREG_WORKERS``, else 1."""
    where, value = "workers", workers
    if workers is None:
        where, value = "HJREG_WORKERS", os.environ.get("HJREG_WORKERS", "1")
        value = int(value) if value.isdecimal() else value
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{where} must be a positive integer, got {value!r}")
    return value


def ensemble(
    config: ExperimentConfig,
    count: int,
    seed: int,
    out_dir: str | Path | None = None,
    workers: int | None = None,
) -> EnsembleReport:
    """Run ``count`` seeded draws of the scenario and merge their reports.

    Member seeds are spawned from the master seed.  The members march as
    one batch, or with several workers (the ``workers`` argument or
    ``HJREG_WORKERS``, a positive integer; serial by default) as one batch
    of contiguous members per worker of one process pool, which serves
    every candidate of an empirical search.  Reports are merged in
    member-index order, so the output does not depend on scheduling.  In
    empirical chain mode every candidate runs all members, and the chosen
    trial's members are the ones written.
    """
    if count < 1:
        raise ConfigError(f"ensemble needs count >= 1, got {count}")
    _seed_range("ensemble", seed)
    workers = min(_worker_count(workers), count)
    begin = time.perf_counter()
    children = np.random.SeedSequence(seed).spawn(count)
    member_seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]

    run_dir = run_directory(config, out_dir, seed, count)
    with ExitStack() as stack:
        # one pool serves every candidate of the search
        pool = None
        if workers > 1:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")))
        cfg, search, members = _search_alpha(
            config,
            lambda trial: _run_members(trial, member_seeds, pool, workers),
            lambda outcomes: _aggregate([r.status for r, _ in outcomes]),
        )

    member_dirs = [run_dir / "members" / f"m{i:03d}" for i in range(count)]
    for member_dir, (rep, outputs) in zip(member_dirs, members):
        _write(member_dir, rep, outputs)
    reports = [rep for rep, _ in members]
    del members, outputs  # the written snapshots are not alive through the report

    counts = {"pass": 0, "vacuous": 0, "refuted": 0, "error": 0}
    for rep in reports:
        counts[rep.status] += 1
    status = _aggregate([r.status for r in reports])
    artifacts = tuple(
        str(d.relative_to(run_dir) / "report.json") for d in member_dirs
    )
    report = EnsembleReport(
        version=SCHEMA_VERSION,
        scenario=cfg.scenario,
        status=status,
        config=cfg.to_json_dict(),
        count=count,
        seed=seed,
        member_seeds=tuple(member_seeds),
        counts=counts,
        chain_search=search,
        members=tuple(r.to_json_dict() for r in reports),
        artifacts=artifacts,
        timings={"total": time.perf_counter() - begin},
    )
    _write(run_dir, report, {})
    return report
