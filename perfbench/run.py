"""Benchmark for the hjreg CLI: four generated workloads, one layer trace.

Usage (from the repository root)::

    python3 perfbench/run.py --workload osc-scan --seed 1 --seconds 20 --trace 0

Every repetition is a fresh ``python3 perfbench/child.py`` process that
imports the package from ``src/``, parses the generated config and calls
``hjreg.cli.main``; repetitions run one at a time with ``HJREG_WORKERS``
and ``HJREG_OUT_DIR`` removed from the environment, so ensembles run
serially and every output lands in the work directory.  The benchmark pins
itself and its children to one CPU and times a fixed reference before and
after every child; ``setup_s``, and ``wall_s`` except on ``zoom-sweep``,
are scaled to a nominal reference time (see ``hostspeed``), and the
measured times are kept beside them.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` adds one traced repetition after the
untraced ones and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is the
environment block.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import hostspeed
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
CONFIG = "config.json"
OUT = "out"

# Set-up-only children per run on top of each repetition's own set-up; the
# reported set-up time is the median over all of them.
SETUP_SAMPLES = 2
# Untraced repetitions per run at least, so the median is never one sample.
MIN_REPS = 2
# Wall-clock budget for one benchmark invocation, below the 180 s limit.
BUDGET_S = 165.0


@dataclass(frozen=True)
class Workload:
    scenario: str
    # Edits the bundled config in place for a seed; returns the CLI arguments
    # and the report path relative to the work directory.
    prepare: Callable[[dict, int], tuple[list[str], str]]
    # Per-layer metrics that must be non-zero in the traced repetition.
    required: tuple[str, ...]
    seed_used: bool = True
    # Most of the run is numpy work on large arrays (a solver kernel over
    # 100 MB trajectories) whose time does not follow the host speed
    # reference, so ``wall_s`` is the measured time; in runs of interpreted
    # per-call work it is scaled like ``setup_s`` (see ``hostspeed``).
    array_bound: bool = False


def _run_report(cfg: dict) -> str:
    return f"{OUT}/{cfg['scenario']}-seed{cfg['initial_data'].get('seed', 0)}/report.json"


def _osc_scan(cfg: dict, seed: int) -> tuple[list[str], str]:
    cfg["initial_data"]["seed"] = seed
    return ["run", "--config", CONFIG], _run_report(cfg)


def _zoom_sweep(cfg: dict, seed: int) -> tuple[list[str], str]:
    cfg["initial_data"]["seed"] = seed
    cfg["theorem"]["mode"] = "resolve"
    return ["run", "--config", CONFIG, "--resolution", "96"], _run_report(cfg)


ENSEMBLE_COUNT = 24


def _ensemble_search(cfg: dict, seed: int) -> tuple[list[str], str]:
    cfg["checks"] = ["lemma1", "lemma2", "osc_above", "osc_below"]
    cfg["chain"] = {"mode": "empirical"}
    argv = ["ensemble", "--config", CONFIG, "--count", str(ENSEMBLE_COUNT),
            "--seed", str(seed)]
    name = f"{cfg['scenario']}-ensemble-seed{seed}-n{ENSEMBLE_COUNT}"
    return argv, f"{OUT}/{name}/report.json"


def _oracle_refine(cfg: dict, seed: int) -> tuple[list[str], str]:
    # cone data draws nothing at random, so the seed does not reach the program
    cfg["oracle"]["refinements"] = 3
    return ["run", "--config", CONFIG], _run_report(cfg)


WORKLOADS = {
    "osc-scan": Workload(
        "oscillation-improvement", _osc_scan,
        ("solver.solve.calls", "oscillation.oscillation_above_check.calls",
         "oscillation.oscillation_below_check.calls", "grid.save_snapshot.calls",
         "experiment.run.calls"),
    ),
    "zoom-sweep": Workload(
        "rough-eta-sweep", _zoom_sweep,
        ("solver.solve.calls", "rescale.theorem_check.calls",
         "rescale.zoom_cascade.calls", "rescale.zoom_cascade.resolves",
         "rescale.holder_estimate.calls",
         "hamiltonians.TransformedHamiltonian.eval.calls",
         "hamiltonians.coercivity_check.calls", "experiment.run.calls"),
        array_bound=True,
    ),
    "ensemble-search": Workload(
        "small-mass-ensemble", _ensemble_search,
        ("solver.solve.calls", "degiorgi.lemma_one_check.calls",
         "degiorgi.lemma_two_check.calls", "degiorgi.energy_ladder.calls",
         "oscillation.oscillation_above_check.calls",
         "oscillation.oscillation_below_check.calls",
         "oscillation.build_constant_chain.calls", "grid.save_snapshot.calls",
         "experiment.ensemble.calls"),
    ),
    "oracle-refine": Workload(
        "hopf-lax-validation", _oracle_refine,
        ("solver.solve.calls", "solver.hopf_lax.calls", "experiment.run.calls"),
        seed_used=False,
    ),
}

def metric_units(trace: bool) -> dict[str, str]:
    """Metric names and units that BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report_digest(report: dict) -> str:
    """Hash of the report without its ``timings`` block, like ``stable_bytes()``."""
    body = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def judge(exit_code, report_path: Path, reference: str | None,
          oracle_must_pass: bool) -> tuple[str | None, str | None]:
    """Return ``(digest, failure)`` for one repetition; ``failure`` is None if it passed."""
    if exit_code != 0:
        return None, f"exit code {exit_code}"
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as err:
        return None, f"unreadable report: {err}"
    if not isinstance(report, dict):
        return None, "report is not an object"
    digest = report_digest(report)
    if reference is not None and digest != reference:
        return digest, "report differs from the first repetition"
    if report.get("status") != "pass":
        return digest, f"status {report.get('status')!r}"
    if oracle_must_pass:
        oracle = [c for c in report.get("checks", []) if c.get("check") == "oracle"]
        if not oracle or oracle[0].get("status") != "pass":
            return digest, "oracle check did not pass"
    return digest, None


def layer_metrics(traced: dict, report: dict, out_dir: Path,
                  base_wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced repetition, except ``error_rate``."""
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return {
        **traced["layers"],
        "experiment.search_trials": len(report.get("chain_search") or ()),
        "experiment.files_written": len(files),
        "experiment.bytes_written": sum(p.stat().st_size for p in files),
        "trace.overhead_s": traced["wall_s"] - base_wall,
        "trace.base_wall_s": base_wall,
    }


def host_metrics(done: list[dict], timed: list[dict]) -> dict[str, float]:
    """Medians of the measured times and reference samples behind the scaled ones."""
    return {
        "host.wall_raw_s": statistics.median(r["wall_raw_s"] for r in done),
        "host.setup_raw_s": statistics.median(r["setup_raw_s"] for r in timed),
        "host.ref_s": statistics.median(r["ref_s"] for r in timed),
    }


class Runner:
    """Launches children in one work directory and collects their results."""

    def __init__(self, work: Path, deadline: float, scale_wall: bool):
        self.work = work
        self.deadline = deadline
        self.scale_wall = scale_wall
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("HJREG_WORKERS", "HJREG_OUT_DIR")}
        self.count = 0
        # reference sample taken after the last child, or None before the first
        self.reference: float | None = None

    def launch(self, argv: list[str] | None, trace: bool = False) -> dict | None:
        """Run one child between two host speed samples.

        The result gains ``setup_s`` at nominal host speed (see
        ``hostspeed``), the measured ``setup_raw_s`` and ``wall_raw_s``, and
        the mean reference sample ``ref_s``; ``wall_s`` is scaled too if the
        runner scales wall times.  It is None if the child crashed or timed out.
        """
        self.count += 1
        if self.reference is None:
            self.reference = hostspeed.sample()
        before = self.reference
        result_path = self.work / f"child{self.count}.json"
        job = {"src": str(SRC), "config": CONFIG, "argv": argv,
               "trace": trace, "result": str(result_path)}
        with open(self.work / f"child{self.count}.log", "w") as log:
            launched = time.monotonic()
            try:
                subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
                    cwd=self.work, env=self.env, stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(self.deadline - launched, 1.0),
                )
            except subprocess.TimeoutExpired:
                return None
            finally:
                self.reference = hostspeed.sample()
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            return None
        result["ref_s"] = (before + self.reference) / 2.0
        result["setup_raw_s"] = result["setup_end"] - launched
        result["setup_s"] = hostspeed.at_nominal(
            result["setup_raw_s"], before, self.reference)
        if "wall_s" in result:
            result["wall_raw_s"] = result["wall_s"]
            if self.scale_wall:
                result["wall_s"] = hostspeed.at_nominal(
                    result["wall_raw_s"], before, self.reference)
        return result


def environment(seed: int, workload: Workload, cpu: int) -> dict:
    """Metadata printed next to the results; none of it is a metric."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        # as set for the benchmark; the children always run without it
        "HJREG_WORKERS": os.environ.get("HJREG_WORKERS"),
        "commit": commit,
        "seed": seed,
        "seed_used": workload.seed_used,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "hjreg" / "cli.py").is_file():
        print(f"no hjreg package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    cpu = hostspeed.pin()
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = SRC / "hjreg" / "scenarios" / f"{workload.scenario}.json"
    cfg = json.loads(scenario.read_text())
    cfg["output_dir"] = OUT
    cli, report_rel = workload.prepare(cfg, args.seed)
    (work / CONFIG).write_text(json.dumps(cfg, indent=2) + "\n")
    runner = Runner(work, start + BUDGET_S, scale_wall=not workload.array_bound)

    # the first child fills the bytecode and file caches and is not timed
    setups = [runner.launch(None) for _ in range(SETUP_SAMPLES + 1)][1:]
    if any(s is None for s in setups):
        print(f"set-up failed; see the child logs in {work}", file=sys.stderr)
        return 1
    timed = list(setups)

    reference: str | None = None

    def repetition(trace: bool) -> dict:
        nonlocal reference
        shutil.rmtree(work / OUT, ignore_errors=True)
        result = runner.launch(cli, trace)
        if result is None:
            return {"failure": "child crashed or timed out"}
        digest, result["failure"] = judge(
            result["exit_code"], work / report_rel, reference,
            oracle_must_pass=args.workload == "oracle-refine",
        )
        reference = reference or digest
        return result

    reps: list[dict] = []
    measure_start = time.monotonic()
    longest = 0.0
    # The traced repetition, about one untraced one, counts toward --seconds.
    traced_share = 1.2 if args.trace else 0.0
    while True:
        began = time.monotonic()
        reps.append(repetition(False))
        now = time.monotonic()
        longest = max(longest, now - began)
        mean = (now - measure_start) / len(reps)
        # Past two repetitions, stop where the next one would end further past
        # --seconds than this one ends before it, so a run lasts about
        # --seconds whatever the repetition takes.
        if (len(reps) >= MIN_REPS
                and now - measure_start + (0.5 + traced_share) * mean >= args.seconds):
            break
        if now + (1.5 + traced_share) * longest > start + BUDGET_S:
            break
    traced = repetition(True) if args.trace else None

    done = [r for r in reps if r["failure"] is None]
    timed += [r for r in reps if "setup_s" in r]
    attempted = len(reps) + (traced is not None)
    failures = [r["failure"] for r in reps if r["failure"]]
    if not done:
        print("no repetition succeeded: " + "; ".join(failures), file=sys.stderr)
        return 1

    base_wall = statistics.median(r["wall_s"] for r in done)
    units = metric_units(traced is not None)
    if traced is None:
        values = {
            "wall_s": base_wall,
            "setup_s": statistics.median(r["setup_s"] for r in timed),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        }
    else:
        values = dict.fromkeys(units, 0.0)
        if traced["failure"] is None:
            report = json.loads((work / report_rel).read_text())
            values.update(layer_metrics(traced, report, work / OUT, base_wall))
            values.update(host_metrics(done, timed))
            missing = [k for k in workload.required if not values[k]]
            if missing:
                traced["failure"] = "traced run never reached " + ", ".join(missing)
        if traced["failure"]:
            failures.append(traced["failure"])
        values["error_rate"] = len(failures) / attempted

    shutil.rmtree(work / OUT, ignore_errors=True)
    env = environment(args.seed, workload, cpu)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    detail = {
        "environment": env,
        "failures": failures,
        "samples": [
            {k: r[k] for k in ("setup_raw_s", "wall_raw_s", "ref_s",
                               "setup_s", "wall_s") if k in r}
            for r in timed
        ],
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n")
    for failure in failures:
        print(f"failed repetition: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
