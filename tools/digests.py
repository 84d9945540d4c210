"""Print three digest lines per reference run, then one per chain setting.

The report digest is the first 16 hex digits of the sha256 of
``json.dumps(report minus "timings", sort_keys=True)``, so two checkouts
whose runs print the same lines wrote the same reports up to wall-clock
numbers.  The ``files`` line below it counts every file under the run
directory and gives the first 16 hex digits of the sha256 over them in
sorted relative-path order, each hashed as its path, its length and its
bytes; every ``report.json`` (member reports included) is hashed as its
report digest text, without ``timings``.  The run directory is removed
before the run, so the line pins exactly what the run wrote.  The
trajectory digest, on the ``traj`` line below that, is the first 16 hex
digits of the sha256 over every ``solve`` the run made, in call order: the
shape ``(n_slices, *spatial_shape)``, every slice the march computes in
slice order (the bytes of the whole trajectory array, also where the
solve keeps only the slices its checks read), then ``cfl_margins`` and
``max_updates`` of each returned trajectory, and the exception name and
``step_index`` of each aborted one (zoom re-solves retry on aborts).  A
batched march of an ensemble's members counts and hashes as its members'
separate solves, in member order (see ``TrajectoryDigest``), so ``solves=``
counts marched members.  Reports and snapshots read only part of a
trajectory; this line pins all of it.  The runs:

- ``run`` of every bundled scenario;
- ``run`` of ``rough-eta-sweep`` at ``--resolution 96``;
- ``run`` of ``rough-eta-sweep`` with ``theorem.mode = "resolve"``;
- ``run`` of ``rough-eta-sweep`` at ``--resolution 96`` with
  ``theorem.mode = "resolve"`` (the perfbench zoom-sweep run);
- ``run`` of ``rough-eta-sweep`` unswept, with only the ``theorem`` check,
  ``solve.max_steps = 500`` and ``theorem.working_cells = 96``: two base
  points' cascades abort at level 0, after the re-solve's dt-halving
  retries, so the scan is an error;
- ``run`` of ``oscillation-improvement`` with only the ``cascade`` check,
  in ``cascade.mode = "resolve"``;
- ``run`` of ``refuted-fixture`` with ``chain.mode = "empirical"``: every
  candidate is refuted, so the search ends on the smallest;
- ``ensemble`` of ``small-mass-ensemble`` with checks lemma1, lemma2,
  osc_above and osc_below and ``chain.mode = "empirical"``,
  ``--count 4 --seed 3``.

``"resolve"`` is the default and only zoom mode, so the three runs with
``mode = "resolve"`` repeat the default path; they stay because they pin
the key the benchmark's zoom-sweep writes.

Each ``chain`` line after the runs gives the first 16 hex digits of the
sha256 of ``hjreg chain`` stdout for one setting of ``CHAIN_SETTINGS``;
that command writes no file, so these lines pin its JSON.

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
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

import hjreg.solver  # noqa: E402
from hjreg.cli import main as hjreg_main  # noqa: E402
from hjreg.experiment import bundled_scenarios  # noqa: E402

ENSEMBLE_CHECKS = ["lemma1", "lemma2", "osc_above", "osc_below"]
# (N, p, lambda, alpha) of each ``hjreg chain`` line
CHAIN_SETTINGS = [("2", "1.5", "1", "1"), ("3", "2", "2", "1")]


def _report_text(report_path: Path) -> str:
    with open(report_path) as fh:
        report = json.load(fh)
    report.pop("timings", None)
    return json.dumps(report, sort_keys=True)


def digest(report_path: Path) -> str:
    return hashlib.sha256(_report_text(report_path).encode()).hexdigest()[:16]


def files_digest(run_dir: Path) -> str:
    """``n=<files>  <hex16>`` over every file under ``run_dir``."""
    files = sorted(
        (p.relative_to(run_dir).as_posix(), p)
        for p in run_dir.rglob("*") if p.is_file()
    )
    h = hashlib.sha256()
    for rel, path in files:
        if path.name == "report.json":
            data = _report_text(path).encode()
        else:
            data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return f"n={len(files)}  {h.hexdigest()[:16]}"


class TrajectoryDigest:
    """Hashes every trajectory ``hjreg.solver.solve`` computes.

    ``install`` rebinds ``solve`` in every loaded hjreg module that holds
    it, and the march's step on ``hjreg.solver._StepKernel``, so the digest
    reads every slice as the march computes it, also the slices a windowed
    solve does not keep; ``reset`` starts a new digest.

    A batched march hashes as its members' separate solves, in member
    order: each member's shape, its slices as marched, its ``cfl_margins``
    and ``max_updates``, as the member's own solve would hash.  A batch
    of several members that aborts hashes as nothing, since the run then
    solves its members one at a time, and those solves hash as above.
    Unchanged ``traj`` lines thus show that a batch marches every member
    with the bits of its own solve.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hash = hashlib.sha256()
        self.solves = 0

    def install(self) -> None:
        original = hjreg.solver.solve
        kernel = hjreg.solver._StepKernel
        step = kernel.__call__
        # the current march: member 0's digest so far, and the slices of
        # the others, which hash after it
        march: dict = {}

        def hashed_step(self_, u, t, step_index, out):
            result = step(self_, u, t, step_index, out)
            rest = march["rest"]
            for block in ((u, out) if step_index == 0 else (out,)):
                rows = np.ascontiguousarray(block).reshape(len(rest) + 1, -1)
                march["first"].update(rows[0].tobytes())
                for stream, row in zip(rest, rows[1:]):
                    stream.append(row.tobytes())
            return result

        def solve(spec, h, u0, *args, **kwargs):
            batch = isinstance(u0, list)
            members = len(u0) if batch else 1
            shape = repr((spec.n_slices, *spec.spatial_shape)).encode()
            march["first"] = self.hash.copy()
            march["first"].update(shape)
            march["rest"] = [[] for _ in range(members - 1)]
            try:
                traj = original(spec, h, u0, *args, **kwargs)
            except Exception as err:
                if members == 1:
                    # an aborted solve hashes as its abort alone
                    self.solves += 1
                    step_index = getattr(err, "step_index", None)
                    self.hash.update(f"abort {type(err).__name__} {step_index}".encode())
                raise
            self.hash = march["first"]
            for m in range(members):
                if m > 0:
                    self.hash.update(shape)
                    for chunk in march["rest"][m - 1]:
                        self.hash.update(chunk)
                member = traj.member(m) if batch else traj
                for arr in (member.cfl_margins, member.max_updates):
                    self.hash.update(np.ascontiguousarray(arr).tobytes())
                self.solves += 1
            return traj

        kernel.__call__ = hashed_step
        for name, mod in list(sys.modules.items()):
            if name.startswith("hjreg") and getattr(mod, "solve", None) is original:
                mod.solve = solve

    def line(self) -> str:
        return f"solves={self.solves}  {self.hash.hexdigest()[:16]}"


def _scenario_config(name: str) -> dict:
    path = REPO / "src" / "hjreg" / "scenarios" / f"{name}.json"
    with open(path) as fh:
        return json.load(fh)


def _call(argv: list[str], stdout: io.StringIO | None = None) -> int:
    with contextlib.redirect_stdout(stdout or io.StringIO()), \
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
    base = root / "resolve-96"
    out.append((
        "run rough-eta-sweep --resolution 96 theorem.mode=resolve",
        ["run", "--config", str(path), "--resolution", "96", "--out", str(base)],
        base / f"rough-eta-sweep-seed{sweep_seed}" / "report.json",
    ))

    abort = _scenario_config("rough-eta-sweep")
    del abort["sweep"]
    abort.update(checks=["theorem"], solve={"max_steps": 500})
    abort["theorem"]["working_cells"] = 96
    path = configs / "rough-eta-sweep-theorem-abort.json"
    path.write_text(json.dumps(abort, indent=2))
    base = root / "theorem-abort"
    out.append((
        "run rough-eta-sweep theorem-abort",
        ["run", "--config", str(path), "--out", str(base)],
        base / f"rough-eta-sweep-seed{sweep_seed}" / "report.json",
    ))

    osc = _scenario_config("oscillation-improvement")
    osc["checks"] = ["cascade"]
    osc["cascade"] = {"mode": "resolve"}
    path = configs / "oscillation-improvement-cascade-resolve.json"
    path.write_text(json.dumps(osc, indent=2))
    base = root / "cascade-resolve"
    out.append((
        "run oscillation-improvement cascade.mode=resolve",
        ["run", "--config", str(path), "--out", str(base)],
        base / f"oscillation-improvement-seed{osc['initial_data']['seed']}"
        / "report.json",
    ))

    refuted = _scenario_config("refuted-fixture")
    refuted["chain"] = {"mode": "empirical"}
    path = configs / "refuted-fixture-empirical.json"
    path.write_text(json.dumps(refuted, indent=2))
    base = root / "refuted-empirical"
    out.append((
        "run refuted-fixture chain.mode=empirical",
        ["run", "--config", str(path), "--out", str(base)],
        base / "refuted-fixture-seed0" / "report.json",
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
        shutil.rmtree(report.parent, ignore_errors=True)
        trajectories.reset()
        code = _call(hjreg_argv)
        value = digest(report) if report.exists() else "no-report"
        print(f"{name}  exit={code}  {value}", flush=True)
        print(f"files {name}  {files_digest(report.parent)}", flush=True)
        print(f"traj {name}  {trajectories.line()}", flush=True)
    for n, p, lam, alpha in CHAIN_SETTINGS:
        stdout = io.StringIO()
        code = _call(["chain", "--N", n, "--p", p, "--lambda", lam,
                      "--alpha", alpha], stdout)
        value = hashlib.sha256(stdout.getvalue().encode()).hexdigest()[:16]
        print(f"chain N={n} p={p} lambda={lam} alpha={alpha}  exit={code}  {value}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
