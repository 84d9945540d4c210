"""Scenario assembly: validated configs, check orchestration, reports.

A run solves one initial-data draw under one Hamiltonian and feeds the
trajectory to the enabled checks; an ensemble repeats that over seeded
draws and merges the member reports in index order.  Reports are plain
JSON with a separable ``timings`` block, so two runs of the same config
and seed produce byte-identical ``stable_bytes()``.
"""

from __future__ import annotations

import json
import math
import os
import time
import types
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .degiorgi import (
    delta_constant,
    energy_ladder,
    fast_convergence_threshold,
    lemma_one_check,
    lemma_two_check,
    recurrence_fit,
)
from .grid import _KEYS, Cylinder, GridSpec, ScalarField, Window
from .grid import field_from_values, save_snapshot, to_json
from .hamiltonians import CoercivityEnvelope, HamiltonianSpec, coercivity_check
from .initial_data import make_initial_function, validate_descriptor
from .oscillation import (
    ChainConstructionError,
    ConstantChain,
    build_constant_chain,
    oscillation_above_check,
    oscillation_below_check,
)
from .rescale import (
    _base_point_cascades,
    holder_estimate,
    records_to_csv,
    theorem_check,
)
from .solver import SolveConfig, SolverError, hopf_lax, snap_dt, solve

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
    "scenario_path",
]

SCHEMA_VERSION = "1"
CHECK_NAMES = ("lemma1", "lemma2", "osc_above", "osc_below", "cascade", "theorem")

# Reference recurrence prefactor behind the default mass threshold; the
# fitted prefactor of the actual run is reported next to the default so a
# bad reference is visible rather than silent.
_D_REFERENCE = 10.0

_SWEEPABLE = {"eta": "eta", "coefficient": "coefficient", "lambda": "lam"}
_TOLERANCES = ("delta", "conclusion", "residual")

# Checks whose lattice windows are fixed by the statements they test.
_WINDOWS = {
    "lemma1": (0.0, 2.0, 1.0),
    "lemma2": (-2.0, 2.0, 1.0),
    "osc_above": (-2.0, 2.0, 1.0),
    "osc_below": (-2.0, 2.0, 1.0),
}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


@contextmanager
def _section(where: str):
    """Report a value that fails to coerce or validate as a ``ConfigError``."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as err:
        raise ConfigError(f"{where}: {err}") from None


# Resolved field annotations per settings class.
_hints = cache(typing.get_type_hints)


def _coerce(value, hint, key: str, where: str):
    """``value`` read as the annotation ``hint`` of the field at ``key``.

    ``int`` must be integral, ``float`` finite, ``X | None`` also takes
    ``null``, ``tuple[X, ...]`` a JSON array, ``dict`` a JSON object, and a
    settings dataclass its own section; booleans are not numbers.
    """
    if typing.get_origin(hint) is types.UnionType:
        if value is None:
            return None
        (hint,) = (arg for arg in typing.get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _from_json(hint, value, key if where == "config" else f"{where}.{key}")
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"{key} must be a JSON array, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(
            _coerce(v, item, f"{key}[{i}]", where) for i, v in enumerate(value)
        )
    if hint is dict:
        if not isinstance(value, dict):
            raise TypeError(f"{key} must be a JSON object, got {type(value).__name__}")
        return dict(value)
    if hint is str:
        if not isinstance(value, str):
            raise TypeError(f"{key} must be a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    if hint is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
        return int(value)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    return float(value)


def _from_json(cls, section, where: str, **given):
    """Build the settings dataclass ``cls`` from its JSON ``section``.

    Unknown keys are rejected by name, fields without a default are
    required, and the rest fall back to the dataclass defaults; each value
    is read by its annotation (see ``_coerce``).  ``given`` holds fields the
    caller has built already: their keys are accepted but not read.  Every
    failure is a ``ConfigError`` that names ``where``.
    """
    if not isinstance(section, dict):
        raise ConfigError(
            f"{where} must be a JSON object, got {type(section).__name__}"
        )
    hints = _hints(cls)
    by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
    for key in section:
        if key not in by_key:
            raise ConfigError(f"unknown key {key!r} in {where}")
    kwargs = dict(given)
    with _section(where):
        for key, f in by_key.items():
            if f.name in given:
                continue
            if key in section:
                kwargs[f.name] = _coerce(section[key], hints[f.name], key, where)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where} needs {key!r}")
        return cls(**kwargs)


@dataclass(frozen=True)
class InitialDataSpec:
    name: str = "zero"
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        _at_least("initial_data", self, seed=0)
        validate_descriptor(self.name, self.parameters)


@dataclass(frozen=True)
class ChainSettings:
    """Either a fixed measure threshold or a descending candidate search."""

    alpha: float | None = 1.0
    mode: str = "fixed"
    candidates: tuple[float, ...] = (4.0, 2.0, 1.0, 0.5, 0.25)

    def __post_init__(self) -> None:
        if self.mode not in ("fixed", "empirical"):
            raise ConfigError(f"unknown chain mode {self.mode!r}")
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
        out: dict = {"mode": self.mode}
        if self.mode == "fixed":
            out["alpha"] = self.alpha
        else:
            out["candidates"] = list(self.candidates)
        return out


def _at_least(where: str, opts, **lows) -> None:
    """Reject any named field of ``opts`` below its lower bound."""
    for name, low in lows.items():
        value = getattr(opts, name)
        if value < low:
            raise ConfigError(f"{where} needs {name} >= {low}, got {value}")


def _check_zoom_settings(where: str, opts, **lows) -> None:
    """Ranges shared by the cascade and theorem sections."""
    if opts.mode not in ("interpolate", "resolve"):
        raise ConfigError(f"unknown {where} mode {opts.mode!r}")
    _at_least(where, opts, levels=0, working_cells=4, working_slices=1, **lows)


@dataclass(frozen=True)
class CascadeSettings:
    levels: int = 4
    mode: str = "interpolate"
    base_time: float | None = None
    base_point: tuple[float, ...] | None = None
    working_cells: int = 40
    working_slices: int = 64

    def __post_init__(self) -> None:
        _check_zoom_settings("cascade", self)


@dataclass(frozen=True)
class TheoremSettings:
    delta_time: float | None = None
    points_per_axis: int = 3
    levels: int = 4
    mode: str = "interpolate"
    working_cells: int = 40
    working_slices: int = 64

    def __post_init__(self) -> None:
        _check_zoom_settings("theorem", self, points_per_axis=1)


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
        tolerances = {}
        with _section("tolerances"):
            for key, value in self.tolerances.items():
                if key not in _TOLERANCES:
                    raise ConfigError(f"unknown key {key!r} in tolerances")
                tolerances[key] = _coerce(value, float, key, "tolerances")
                if tolerances[key] < 0.0:
                    raise ValueError(f"{key} must be >= 0, got {value}")
        object.__setattr__(self, "tolerances", tolerances)
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
        cfg = _from_json(ExperimentConfig, data, "config", envelope=None)
        section = data.get("envelope")
        if section is not None:
            if isinstance(section, dict):
                section = {"p": cfg.hamiltonian.p, **section}
            envelope = _from_json(CoercivityEnvelope, section, "envelope")
            cfg = replace(cfg, envelope=envelope)
        _check_gates(cfg)
        return cfg


def _sweep_variants(cfg: ExperimentConfig) -> list[tuple[str, HamiltonianSpec]]:
    """``(label, hamiltonian)`` per solve: one per sweep value, or the
    config's own Hamiltonian with an empty label."""
    if cfg.sweep is None:
        return [("", cfg.hamiltonian)]
    attr = _SWEEPABLE[cfg.sweep.parameter]
    return [
        (f"[{cfg.sweep.parameter}={v:g}]", replace(cfg.hamiltonian, **{attr: v}))
        for v in cfg.sweep.values
    ]


def _check_gates(cfg: ExperimentConfig) -> None:
    """Cross-section rules that make a config runnable, not just well-formed."""
    grid = cfg.grid
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
        window = _WINDOWS.get(name)
        if window is None:
            continue
        t_lo, t_hi, radius = window
        try:
            Window.require_cover(
                grid, Cylinder(t_lo, t_hi, (0.0,) * grid.dimension, radius)
            )
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
            if max(abs(c) for c in x0) >= grid.half_width - 2.0 * grid.cell_width:
                raise ConfigError(
                    "cascade base_point sits within two cells of the boundary"
                )
    if cfg.oracle is not None:
        if cfg.hamiltonian.kind != "power-law":
            raise ConfigError(
                "the inf-convolution oracle is exact only for the plain "
                f"power law, not {cfg.hamiltonian.kind!r}"
            )
        with _section("oracle"):
            grids = _oracle_grids(cfg)
        for grid_l in grids:
            # the one or two axis centers nearest 0, as ``axis_centers`` has them
            n = grid_l.cells_per_axis
            mid = np.arange(max(n // 2 - 1, 0), n // 2 + 1)
            nearest = -grid_l.half_width + grid_l.cell_width * (mid + 0.5)
            if not np.abs(nearest).min() <= cfg.oracle.window * grid_l.half_width:
                raise ConfigError(
                    f"oracle window {cfg.oracle.window} holds no cell center "
                    f"at {grid_l.cells_per_axis} cells per axis"
                )
    if cfg.sweep is not None:
        if cfg.sweep.parameter == "eta" and cfg.hamiltonian.kind != "rough-coefficient":
            raise ConfigError(
                "sweeping 'eta' needs a rough-coefficient hamiltonian"
            )
        with _section("sweep"):
            _sweep_variants(cfg)
    if cfg.chain.mode == "fixed" and _needs_chain(cfg):
        try:
            _build_chain(cfg)
        except (ValueError, ChainConstructionError) as err:
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


def scenario_path(name: str) -> Path:
    p = _bundled_path(name)
    if p is None:
        raise ConfigError(
            f"no bundled scenario {name!r}; have {', '.join(bundled_scenarios())}"
        )
    return p


def _json_safe(obj):
    """Recursively coerce to JSON-serializable values; non-finite floats -> None."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


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

    def to_json_dict(self, include_timings: bool = True) -> dict:
        """Every field, ``timings`` only if ``include_timings``, JSON-safe."""
        out = to_json(self)
        if not include_timings:
            del out["timings"]
        return _json_safe(out)

    def stable_bytes(self) -> bytes:
        """Report bytes with the timings block dropped; identical across reruns."""
        return json.dumps(
            self.to_json_dict(include_timings=False),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()


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
    return any(
        c in cfg.checks
        for c in ("lemma2", "osc_above", "osc_below", "cascade", "theorem")
    )


def _check_lemma1(cfg: ExperimentConfig, traj, chain) -> tuple[str, dict]:
    delta = _default_delta(cfg)
    verdict = lemma_one_check(
        traj.field, cfg.envelope, delta,
        conclusion_tol=cfg.tolerances.get("conclusion"),
    )
    payload = verdict.to_json_dict()
    payload["delta"] = delta
    try:
        ladder = energy_ladder(traj.field, 8, cfg.envelope)
        fit = recurrence_fit(ladder, cfg.grid.dimension)
        payload["recurrence"] = {
            "d_fit": fit.d_fit,
            "d_reference": _D_REFERENCE,
            "all_zero": fit.all_zero,
        }
    except ValueError:
        # ladder windows may not fit inside the configured grid; the check
        # itself already passed coverage gates, so just skip the extras
        pass
    return verdict.status, payload


def _check_lemma2(cfg: ExperimentConfig, traj, chain) -> tuple[str, dict]:
    delta = _default_delta(cfg)
    verdict = lemma_two_check(
        traj.field, cfg.envelope, chain.middle_threshold, delta,
        residual_tol=cfg.tolerances.get("residual"),
    )
    payload = verdict.to_json_dict()
    payload["delta"] = delta
    return verdict.status, payload


def _check_osc_above(cfg: ExperimentConfig, traj, chain) -> tuple[str, dict]:
    verdict = oscillation_above_check(
        traj.field, chain,
        residual_tol=cfg.tolerances.get("residual"),
        conclusion_tol=cfg.tolerances.get("conclusion"),
    )
    return verdict.status, verdict.to_json_dict()


def _check_osc_below(cfg: ExperimentConfig, traj, chain) -> tuple[str, dict]:
    verdict = oscillation_below_check(
        traj.field, chain,
        residual_tol=cfg.tolerances.get("residual"),
        conclusion_tol=cfg.tolerances.get("conclusion"),
    )
    return verdict.status, verdict.to_json_dict()


def _check_cascade(
    cfg: ExperimentConfig,
    traj,
    chain: ConstantChain,
    hamiltonian: HamiltonianSpec,
    outputs: dict,
    label: str,
) -> tuple[str, dict]:
    opts = cfg.cascade
    spec = traj.spec
    t0 = spec.t_end if opts.base_time is None else opts.base_time
    x0 = opts.base_point or (0.0,) * spec.dimension
    gauged, gamma, [(tau, rho, records, aborted)] = _base_point_cascades(
        traj.field, chain, cfg.envelope, [(t0, x0)], opts.levels, opts.mode,
        hamiltonian if opts.mode == "resolve" else None,
        opts.working_cells, opts.working_slices, cfg.solve,
    )
    estimate = holder_estimate(records, chain)
    payload = {
        "base_time": t0,
        "base_point": list(x0),
        "gauged": gauged,
        "gamma": gamma,
        "tau": tau,
        "rho": rho,
        "mode": opts.mode,
        "records": [to_json(r) for r in records],
        "estimate": to_json(estimate),
        "aborted": aborted,
    }
    outputs[f"cascades/base{label}.csv"] = records_to_csv(records)
    if aborted is not None:
        return "error", payload
    if any(not r.satisfied for r in records):
        return "refuted", payload
    return "pass", payload


def _check_theorem(
    cfg: ExperimentConfig,
    traj,
    chain: ConstantChain,
    hamiltonian: HamiltonianSpec,
) -> tuple[str, dict]:
    opts = cfg.theorem
    spec = traj.spec
    delta_time = opts.delta_time
    if delta_time is None:
        delta_time = spec.t_start + 0.5 * (spec.t_end - spec.t_start)
    report = theorem_check(
        traj,
        delta_time,
        chain,
        cfg.envelope,
        points_per_axis=opts.points_per_axis,
        levels=opts.levels,
        mode=opts.mode,
        hamiltonian=hamiltonian if opts.mode == "resolve" else None,
        working_cells=opts.working_cells,
        working_slices=opts.working_slices,
        solve_config=cfg.solve,
    )
    refuted = report.n_unsatisfied > 0 or (
        math.isfinite(report.alpha_min) and report.alpha_min < report.alpha_theory
    )
    return ("refuted" if refuted else "pass"), to_json(report)


def _oracle_grids(cfg: ExperimentConfig) -> list[GridSpec]:
    """The base grid and each refinement, cells and time steps halved."""
    assert cfg.oracle is not None
    spec = cfg.grid
    return [
        replace(
            spec,
            cells_per_axis=spec.cells_per_axis * 2**level,
            dt=snap_dt(spec.t_start, spec.t_end, spec.dt / 2**level),
        )
        for level in range(cfg.oracle.refinements + 1)
    ]


def _oracle_outcome(cfg: ExperimentConfig) -> tuple[str, dict]:
    opts = cfg.oracle
    assert opts is not None
    spec = cfg.grid
    init = cfg.initial_data
    fn = make_initial_function(spec, init.name, init.parameters, init.seed)
    t_cmp = spec.t_end if opts.time is None else opts.time
    resolutions: list[int] = []
    widths: list[float] = []
    errors: list[float] = []
    for grid_l in _oracle_grids(cfg):
        traj = solve(grid_l, cfg.hamiltonian, fn, cfg.solve)
        times = grid_l.times()
        ti = int(np.argmin(np.abs(times - t_cmp)))
        elapsed = float(times[ti] - grid_l.t_start)
        centers = grid_l.centers().reshape(-1, grid_l.dimension)
        inner = np.max(np.abs(centers), axis=1) <= opts.window * grid_l.half_width
        pts = centers[inner]
        got = traj.field.values[ti].reshape(-1)[inner]
        # neither the oracle's temporaries nor the next level's solve sit
        # on top of this trajectory
        del traj
        want = hopf_lax(fn, elapsed, pts, cfg.hamiltonian.p)
        resolutions.append(grid_l.cells_per_axis)
        widths.append(grid_l.cell_width)
        errors.append(float(np.abs(got - want).max()))
    orders = [
        math.log2(errors[i] / errors[i + 1]) if errors[i + 1] > 0.0 else math.inf
        for i in range(len(errors) - 1)
    ]
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    ok = (
        monotone
        and errors[-1] <= opts.max_error
        and all(o >= opts.min_order for o in orders)
    )
    payload = {
        "time": t_cmp,
        "window": opts.window,
        "resolutions": resolutions,
        "cell_widths": widths,
        "sup_errors": errors,
        "orders": orders,
        "monotone": monotone,
        "max_error": opts.max_error,
        "min_order": opts.min_order,
    }
    return ("pass" if ok else "refuted"), payload


def _coercivity_outcome(
    cfg: ExperimentConfig, hamiltonian: HamiltonianSpec
) -> tuple[str, dict]:
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
    payload = {
        "declared_lambda": env.lam,
        "n_samples": report.n_samples,
        "min_lower_slack": report.min_lower_slack,
        "min_upper_slack": report.min_upper_slack,
        "violations": list(report.violations),
    }
    return ("precondition-violated" if report.violations else "pass"), payload


_CHECK_TABLE = {
    "lemma1": _check_lemma1,
    "lemma2": _check_lemma2,
    "osc_above": _check_osc_above,
    "osc_below": _check_osc_below,
}


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
    spec = traj.spec
    first = replace(spec, t_end=spec.t_start + spec.dt)
    last = replace(spec, t_start=spec.t_end - spec.dt)
    return {
        "snapshots/first_steps": field_from_values(first, traj.field.values[:2]),
        "snapshots/last_steps": field_from_values(last, traj.field.values[-2:]),
    }


def _artifact_names(outputs: dict) -> tuple[str, ...]:
    """The files ``_write`` makes of ``outputs``, relative to the run directory."""
    pair = (".csv", ".json")
    return tuple(path + suffix for path, payload in outputs.items()
                 for suffix in (pair if isinstance(payload, ScalarField) else ("",)))


def _solver_error(stage: str, err: SolverError) -> dict:
    return {"stage": stage, "message": str(err), "step_index": err.step_index}


def _compute(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Solve, check, and report one config without touching the disk.

    Returns the report and the run's outputs: each artifact path, relative
    to the run directory, mapped to what ``_write`` puts there (a dict as
    JSON, a text as is, a field as ``save_snapshot``'s ``.csv``/``.json``).
    """
    timings: dict[str, float] = {}
    checks_out: list[dict] = []
    outputs: dict[str, dict | str | ScalarField] = {}
    statuses: list[str] = []
    error_info = None
    chain = None
    chain_dict = None

    def finish(status: str) -> tuple[RunReport, dict]:
        return RunReport(
            version=SCHEMA_VERSION,
            scenario=cfg.scenario,
            status=status,
            config=cfg.to_json_dict(),
            chain=chain_dict,
            chain_search=None,
            checks=tuple(checks_out),
            artifacts=_artifact_names(outputs),
            error=error_info,
            timings=timings,
        ), outputs

    begin = time.perf_counter()
    if _needs_chain(cfg):
        try:
            chain = _build_chain(cfg)
        except (ValueError, ChainConstructionError) as err:
            error_info = {"stage": "chain", "message": str(err)}
            return finish("error")
        chain_dict = chain.to_json_dict()
        outputs["chain.json"] = chain_dict
    timings["chain"] = time.perf_counter() - begin

    init = cfg.initial_data
    try:
        fn = make_initial_function(cfg.grid, init.name, init.parameters, init.seed)
    except (ValueError, ChainConstructionError) as err:
        error_info = {"stage": "initial_data", "message": str(err)}
        return finish("error")

    for label, hamiltonian in _sweep_variants(cfg):
        if cfg.sweep is not None:
            t0 = time.perf_counter()
            status, payload = _coercivity_outcome(cfg, hamiltonian)
            checks_out.append(
                {"check": f"coercivity{label}", "status": status, **payload}
            )
            statuses.append(status)
            timings[f"coercivity{label}"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            traj = solve(cfg.grid, hamiltonian, fn, cfg.solve)
        except SolverError as err:
            error_info = _solver_error(f"solve{label}", err)
            timings[f"solve{label}"] = time.perf_counter() - t0
            return finish("error")
        timings[f"solve{label}"] = time.perf_counter() - t0

        for name in cfg.checks:
            t0 = time.perf_counter()
            try:
                if name == "cascade":
                    status, payload = _check_cascade(
                        cfg, traj, chain, hamiltonian, outputs, label
                    )
                elif name == "theorem":
                    status, payload = _check_theorem(cfg, traj, chain, hamiltonian)
                else:
                    status, payload = _CHECK_TABLE[name](cfg, traj, chain)
            except (ValueError, RuntimeError) as err:
                status, payload = "error", {"message": str(err)}
            checks_out.append({"check": f"{name}{label}", "status": status,
                               **payload})
            statuses.append(status)
            timings[f"{name}{label}"] = time.perf_counter() - t0

        if cfg.sweep is None:
            outputs.update(_snapshots(traj))
        # free this variant's trajectory before the next one solves
        del traj

    if cfg.oracle is not None:
        t0 = time.perf_counter()
        try:
            status, payload = _oracle_outcome(cfg)
        except SolverError as err:
            error_info = _solver_error("oracle", err)
            timings["oracle"] = time.perf_counter() - t0
            return finish("error")
        checks_out.append({"check": "oracle", "status": status, **payload})
        statuses.append(status)
        timings["oracle"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - begin
    return finish(_aggregate(statuses))


def _write_json(path: Path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write(run_dir: Path, report: RunReport, outputs: dict) -> None:
    """Put a computed run on disk: its artifacts, then ``report.json``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in outputs.items():
        path = run_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, ScalarField):
            save_snapshot(payload, path)
        elif isinstance(payload, dict):
            _write_json(path, _json_safe(payload))
        else:
            path.write_text(payload)
    _write_json(run_dir / "report.json", report.to_json_dict())


def _base_dir(cfg: ExperimentConfig, out_dir: str | Path | None) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    env_dir = os.environ.get("HJREG_OUT_DIR")
    if env_dir:
        return Path(env_dir)
    return Path(cfg.output_dir or "runs")


def _with_overrides(
    cfg: ExperimentConfig, seed: int | None, resolution: int | None
) -> ExperimentConfig:
    if seed is not None:
        with _section(f"seed {seed}"):
            cfg = replace(cfg, initial_data=replace(cfg.initial_data, seed=int(seed)))
    if resolution is not None:
        with _section(f"resolution {resolution}"):
            cells = int(resolution)
            scale = cfg.grid.cells_per_axis / cells
            dt = snap_dt(cfg.grid.t_start, cfg.grid.t_end, cfg.grid.dt * scale)
            cfg = replace(cfg, grid=replace(cfg.grid, cells_per_axis=cells, dt=dt))
    return cfg


def _search_alpha(cfg: ExperimentConfig, runner, status):
    """Largest candidate threshold that survives without a refutation.

    The candidates run in descending order, each as a fixed-mode config,
    until ``status(runner(trial_cfg))`` is not ``"refuted"``; when every
    candidate is refuted the search takes the smallest.  Either way the
    chosen candidate is the last trial run, so its outcome is the run
    itself.  Returns ``(trial_cfg, trials, outcome)`` of that trial, with
    ``trials`` the ``{"alpha", "status"}`` of every candidate tried.
    """
    trials: list[dict] = []
    for alpha in cfg.chain.candidates:
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
    run_dir = _base_dir(cfg, out_dir) / f"{cfg.scenario}-seed{cfg.initial_data.seed}"
    if cfg.chain.mode == "empirical":
        _, search, (report, outputs) = _search_alpha(
            cfg, _compute, lambda outcome: outcome[0].status
        )
        report = replace(report, chain_search=search)
    else:
        report, outputs = _compute(cfg)
    _write(run_dir, report, outputs)
    return report


def _run_members(
    cfg: ExperimentConfig, member_seeds: list[int], workers: int
) -> list[tuple[RunReport, dict]]:
    """``_compute`` of each member, in member order."""
    jobs = [replace(cfg, initial_data=replace(cfg.initial_data, seed=s))
            for s in member_seeds]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(_compute, jobs))
    return [_compute(job) for job in jobs]


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

    Member seeds are spawned from the master seed, members run in a worker
    pool (the ``workers`` argument or ``HJREG_WORKERS``, a positive
    integer; serial by default), and reports are merged in member-index
    order so the output does not depend on scheduling.  In empirical chain
    mode every candidate runs all members, and the chosen trial's members
    are the ones written.
    """
    if count < 1:
        raise ConfigError(f"ensemble needs count >= 1, got {count}")
    if seed < 0:
        raise ConfigError(f"ensemble needs seed >= 0, got {seed}")
    workers = _worker_count(workers)
    begin = time.perf_counter()
    children = np.random.SeedSequence(seed).spawn(count)
    member_seeds = [int(c.generate_state(1, np.uint64)[0]) for c in children]

    run_dir = _base_dir(config, out_dir) / (
        f"{config.scenario}-ensemble-seed{seed}-n{count}"
    )
    cfg = config
    search = None
    if cfg.chain.mode == "empirical":
        cfg, search, members = _search_alpha(
            cfg,
            lambda trial: _run_members(trial, member_seeds, workers),
            lambda outcomes: _aggregate([r.status for r, _ in outcomes]),
        )
    else:
        members = _run_members(cfg, member_seeds, workers)

    member_dirs = [run_dir / "members" / f"m{i:03d}" for i in range(count)]
    for member_dir, (rep, outputs) in zip(member_dirs, members):
        _write(member_dir, rep, outputs)
    reports = [rep for rep, _ in members]

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
        members=tuple(r.to_json_dict(include_timings=False) for r in reports),
        artifacts=artifacts,
        timings={"total": time.perf_counter() - begin},
    )
    _write_json(run_dir / "report.json", report.to_json_dict())
    return report
