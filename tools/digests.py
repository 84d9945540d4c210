"""Print two digest lines per reference run: the report and the trajectories.

The report digest is the first 16 hex digits of the sha256 of
``json.dumps(report minus "timings", sort_keys=True)``, so two checkouts
whose runs print the same lines wrote the same reports up to wall-clock
numbers.  The trajectory digest, on the ``traj`` line below it, is the
first 16 hex digits of the sha256 over every ``solve`` the run made, in
call order: the shape, values, ``cfl_margins`` and ``max_updates`` of each
returned trajectory, and the exception name and ``step_index`` of each
aborted one (zoom re-solves retry on aborts).  Reports and snapshots read
only part of a trajectory; this line pins all of it.  The runs:

- ``run`` of every bundled scenario;
- ``run`` of ``rough-eta-sweep`` at ``--resolution 96``;
- ``run`` of ``rough-eta-sweep`` with ``theorem.mode = "resolve"``;
- ``ensemble`` of ``small-mass-ensemble`` with checks lemma1, lemma2,
  osc_above and osc_below and ``chain.mode = "empirical"``,
  ``--count 4 --seed 3``.

Every run writes under one fixed root (``runs/digests`` in the repository
by default, or ``--out``).  The root reaches the runs through ``--out`` and
``HJREG_OUT_DIR``, never through a config's ``output_dir``, because the
config is part of the report.  Ensembles run serially.

Usage::

    python tools/digests.py [--out DIR]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import hjreg.solver  # noqa: E402
from hjreg.cli import main as hjreg_main  # noqa: E402
from hjreg.experiment import bundled_scenarios  # noqa: E402

ENSEMBLE_CHECKS = ["lemma1", "lemma2", "osc_above", "osc_below"]


def digest(report_path: Path) -> str:
    with open(report_path) as fh:
        report = json.load(fh)
    report.pop("timings", None)
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TrajectoryDigest:
    """Hashes every trajectory ``hjreg.solver.solve`` returns.

    ``install`` rebinds ``solve`` in every loaded hjreg module that holds
    it; ``reset`` starts a new digest.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hash = hashlib.sha256()
        self.solves = 0

    def install(self) -> None:
        original = hjreg.solver.solve

        def solve(*args, **kwargs):
            self.solves += 1
            try:
                traj = original(*args, **kwargs)
            except Exception as err:
                step = getattr(err, "step_index", None)
                self.hash.update(f"abort {type(err).__name__} {step}".encode())
                raise
            self.hash.update(repr(traj.field.values.shape).encode())
            for arr in (traj.field.values, traj.cfl_margins, traj.max_updates):
                self.hash.update(np.ascontiguousarray(arr).tobytes())
            return traj

        for name, mod in list(sys.modules.items()):
            if name.startswith("hjreg") and getattr(mod, "solve", None) is original:
                mod.solve = solve

    def line(self) -> str:
        return f"solves={self.solves}  {self.hash.hexdigest()[:16]}"


def _scenario_config(name: str) -> dict:
    path = REPO / "src" / "hjreg" / "scenarios" / f"{name}.json"
    with open(path) as fh:
        return json.load(fh)


def _call(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return hjreg_main(argv)


def _runs(root: Path) -> list[tuple[str, list[str], Path]]:
    """``(name, hjreg argv, report path)`` for every reference run."""
    configs = root / "configs"
    configs.mkdir(parents=True, exist_ok=True)
    out: list[tuple[str, list[str], Path]] = []
    for name in bundled_scenarios():
        seed = _scenario_config(name).get("initial_data", {}).get("seed", 0)
        base = root / "run" / name
        out.append((f"run {name}", ["run", "--config", name, "--out", str(base)],
                    base / f"{name}-seed{seed}" / "report.json"))

    sweep_seed = _scenario_config("rough-eta-sweep")["initial_data"]["seed"]
    base = root / "resolution-96"
    out.append((
        "run rough-eta-sweep --resolution 96",
        ["run", "--config", "rough-eta-sweep", "--resolution", "96",
         "--out", str(base)],
        base / f"rough-eta-sweep-seed{sweep_seed}" / "report.json",
    ))

    resolve = _scenario_config("rough-eta-sweep")
    resolve["theorem"]["mode"] = "resolve"
    path = configs / "rough-eta-sweep-resolve.json"
    path.write_text(json.dumps(resolve, indent=2))
    base = root / "resolve"
    out.append((
        "run rough-eta-sweep theorem.mode=resolve",
        ["run", "--config", str(path), "--out", str(base)],
        base / f"rough-eta-sweep-seed{sweep_seed}" / "report.json",
    ))

    ens = _scenario_config("small-mass-ensemble")
    ens["checks"] = ENSEMBLE_CHECKS
    ens["chain"]["mode"] = "empirical"
    path = configs / "small-mass-ensemble-empirical.json"
    path.write_text(json.dumps(ens, indent=2))
    out.append((
        "ensemble small-mass-ensemble empirical --count 4 --seed 3",
        ["ensemble", "--config", str(path), "--count", "4", "--seed", "3"],
        root / "ensemble" / "small-mass-ensemble-ensemble-seed3-n4" / "report.json",
    ))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(REPO / "runs" / "digests"),
                        help="root directory for every run's output")
    args = parser.parse_args(argv)
    root = Path(args.out).resolve()
    os.environ.pop("HJREG_WORKERS", None)
    os.environ["HJREG_OUT_DIR"] = str(root / "ensemble")
    trajectories = TrajectoryDigest()
    trajectories.install()
    for name, hjreg_argv, report in _runs(root):
        report.unlink(missing_ok=True)
        trajectories.reset()
        code = _call(hjreg_argv)
        value = digest(report) if report.exists() else "no-report"
        print(f"{name}  exit={code}  {value}", flush=True)
        print(f"traj {name}  {trajectories.line()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
