"""Print what the solver's step costs in each solve of one run.

Runs one of the benchmark's workloads (``osc-scan``, ``oracle-refine``,
...; the config is prepared by ``perfbench/run.py``'s ``WORKLOADS``, as a
benchmark child gets it) in this process, in a temporary directory, and
times every call of ``solver._StepKernel.__call__``, one step of one
march.  A solve builds one kernel, so the steps are grouped by kernel: for
each solve, in call order, a line gives its grid, its members, its steps,
the microseconds per step and the cell-steps per second (cells times
members times steps over the time spent in the steps).  The last line sums
every solve.  This is the solver-step layer alone: the benchmark's spans
time ``solve`` with the streamed readers and scans it feeds.

The first run warms the caches and is not reported; then ``--repeat``
runs follow, and each line gives the median over them beside the counts
of one run (every run marches the same).  Ensembles run serially.

Usage::

    python tools/steps.py oracle-refine [--seed 1] [--repeat 3]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from hjreg.cli import main as hjreg_main  # noqa: E402
from hjreg.solver import _StepKernel  # noqa: E402
from run import CONFIG, OUT, WORKLOADS  # noqa: E402


class StepClock:
    """Wraps ``_StepKernel.__init__`` and ``__call__``: one record
    ``[grid, members, cells, steps, seconds]`` per kernel, in the order the
    kernels were built; one :meth:`reset` per run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.solves: list[list] = []

    def install(self) -> None:
        init, call = _StepKernel.__init__, _StepKernel.__call__
        clock = self

        def counted_init(kernel, spec, h, cfg, members=1):
            init(kernel, spec, h, cfg, members)
            grid = f"{spec.cells_per_axis}^{spec.dimension}"
            kernel._step_record = [grid, members, members * math.prod(spec.spatial_shape),
                                   0, 0.0]
            clock.solves.append(kernel._step_record)

        def timed_call(kernel, u, t, step_index, out):
            start = time.perf_counter()
            try:
                call(kernel, u, t, step_index, out)
            finally:
                record = kernel._step_record
                record[4] += time.perf_counter() - start
                record[3] += 1

        _StepKernel.__init__, _StepKernel.__call__ = counted_init, timed_call


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    workload = WORKLOADS[args.workload]
    scenario = REPO / "src" / "hjreg" / "scenarios" / f"{workload.scenario}.json"
    cfg = json.loads(scenario.read_text())
    cfg["output_dir"] = OUT
    hjreg_argv, _ = workload.prepare(cfg, args.seed)
    for name in ("HJREG_WORKERS", "HJREG_OUT_DIR"):
        os.environ.pop(name, None)
    clock = StepClock()
    clock.install()
    runs = []
    with tempfile.TemporaryDirectory() as work:
        home = os.getcwd()
        os.chdir(work)
        try:
            Path(CONFIG).write_text(json.dumps(cfg, indent=2) + "\n")
            for _ in range(args.repeat + 1):
                clock.reset()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = hjreg_main(hjreg_argv)
                if code != 0:
                    print(f"hjreg {' '.join(hjreg_argv)} exited {code}", file=sys.stderr)
                    return 1
                runs.append(clock.solves)
        finally:
            os.chdir(home)
    runs = runs[1:]
    print(f"{'solve':>5} {'grid':>8}{'members':>9}{'steps':>8}{'us/step':>10}"
          f"{'cell-steps/s':>14}")
    total_steps = total_cell_steps = 0
    for index, (grid, members, cells, steps, _) in enumerate(runs[0]):
        seconds = statistics.median(run[index][4] for run in runs)
        total_steps += steps
        total_cell_steps += cells * steps
        rate = cells * steps / seconds if seconds else float("nan")
        print(f"{index:>5} {grid:>8}{members:>9}{steps:>8}"
              f"{1e6 * seconds / max(steps, 1):>10.2f}{rate:>14.3g}")
    seconds = statistics.median(sum(s[4] for s in run) for run in runs)
    rate = total_cell_steps / seconds if seconds else float("nan")
    print(f"{'all':>5} {'':>8}{'':>9}{total_steps:>8}"
          f"{1e6 * seconds / max(total_steps, 1):>10.2f}{rate:>14.3g}")
    print(f"step seconds {seconds:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
