"""In-memory call spans around hjreg's public functions, applied from outside.

``install`` rebinds each traced function in every loaded ``hjreg`` module
that holds it, and each traced method on its class, so the package's own
source is never edited.  Spans stay in memory; ``summarize`` turns them into
per-binding call counts and self times plus the layer counters.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

# Every traced binding as (module, attribute path).  Method paths name the
# class first; they are patched on the class, which every instance shares.
TARGETS = (
    ("solver", "solve"),
    ("solver", "residual_subsolution"),
    ("solver", "residual_supersolution"),
    ("solver", "hopf_lax"),
    ("hamiltonians", "HamiltonianSpec.eval"),
    ("hamiltonians", "TransformedHamiltonian.eval"),
    ("hamiltonians", "coercivity_check"),
    ("grid", "level_set_measure"),
    ("grid", "one_cell_oscillation"),
    ("grid", "discrete_gradient_norm_p"),
    ("grid", "save_snapshot"),
    ("degiorgi", "lemma_one_check"),
    ("degiorgi", "lemma_two_check"),
    ("degiorgi", "energy_ladder"),
    ("oscillation", "oscillation_above_check"),
    ("oscillation", "oscillation_below_check"),
    ("oscillation", "dyadic_ladder"),
    ("oscillation", "time_reverse"),
    ("oscillation", "build_constant_chain"),
    ("rescale", "theorem_check"),
    ("rescale", "gauge_to_window"),
    ("rescale", "base_point_window"),
    ("rescale", "resample"),
    ("rescale", "zoom_cascade"),
    ("rescale", "holder_estimate"),
    ("initial_data", "make_initial_function"),
    ("experiment", "parse_config"),
    ("experiment", "run"),
    ("experiment", "ensemble"),
)

SPAN_NAMES = tuple(f"{module}.{path}" for module, path in TARGETS)

class Tracer:
    """Records one span per traced call: [name, parent index, start, end, error].

    Calls are assumed to run on one thread, so the open spans form a stack
    and every span's parent is the innermost span open when it started.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """``fn`` inside a span; ``measure(args, kwargs, result)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None,
                    self.clock(), None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[3] = self.clock()
                self._open.pop()
            if measure is not None:
                for key, value in measure(args, kwargs, result).items():
                    self.counts[key] += value
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _trajectory_counts(args, kwargs, traj) -> dict:
    shape = traj.field.values.shape
    cells = math.prod(shape[1:])
    return {
        "solver.solve.cell_steps": (shape[0] - 1) * cells,
        # computed from the shape, not measured: n_slices x cells x float64
        "solver.solve.traj_bytes": shape[0] * cells * 8,
    }


def _residual_counts(args, kwargs, report) -> dict:
    return {"solver.residual.slices": report.values.shape[0]}


def _snapshot_counts(args, kwargs, paths) -> dict:
    return {"grid.save_snapshot.bytes": sum(Path(p).stat().st_size for p in paths)}


_MEASURES = {
    "solver.solve": _trajectory_counts,
    "solver.residual_subsolution": _residual_counts,
    "solver.residual_supersolution": _residual_counts,
    "grid.save_snapshot": _snapshot_counts,
}


def install(tracer: Tracer) -> None:
    """Wrap every target, rebinding it wherever a loaded hjreg module holds it."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "hjreg" or name.startswith("hjreg."))
    ]
    for module_name, path in TARGETS:
        name = f"{module_name}.{path}"
        owner = sys.modules[f"hjreg.{module_name}"]
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        original = owner.__dict__[attr]
        wrapped = tracer.wrap(name, original, _MEASURES.get(name))
        if classes:
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-binding ``calls``/``self_s`` plus the layer counters."""
    spans = tracer.spans
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span[0]}.calls"] += 1
        out[f"{span[0]}.self_s"] += own
    counts = dict(tracer.counts)
    solve_s = 0.0
    failed = resolves = retries = 0
    for name, parent, start, end, error in spans:
        if name != "solver.solve":
            continue
        solve_s += end - start
        failed += error == "SolverError"
        if parent is not None and spans[parent][0] == "rescale.zoom_cascade":
            resolves += 1
            retries += error == "SolverError"
    cell_steps = counts.get("solver.solve.cell_steps", 0)
    out.update({
        "solver.solve.cell_steps": cell_steps,
        "solver.solve.cell_steps_per_s": cell_steps / solve_s if solve_s else 0.0,
        "solver.solve.traj_bytes": counts.get("solver.solve.traj_bytes", 0),
        "solver.solve.failed": failed,
        "solver.residual.slices": counts.get("solver.residual.slices", 0),
        "grid.save_snapshot.bytes": counts.get("grid.save_snapshot.bytes", 0),
        "rescale.zoom_cascade.resolves": resolves,
        "rescale.zoom_cascade.retries": retries,
    })
    return out
