"""Print where the check layer's table reads spend their time in one run.

Runs one of the benchmark's workloads (``osc-scan``, ``ensemble-search``,
...; the config is prepared by ``perfbench/run.py``'s ``WORKLOADS``, as a
benchmark child gets it) in this process, in a temporary directory, and
times every call of ``grid.SliceTables._fill`` (one read of one block) by
the read's kind and sign, and of ``grid.SliceTables._jumps`` (every
``jumps`` read of one block).  A read is *decided* when the block's range
fixed its entries without reading a value, *computed* otherwise; the
lazily gathered ball copy and range of a block are charged to the first
read that needs them.  ``take`` is the time of every
``SliceTables.take`` call, so ``take - reads`` is the loop around the
reads.

The first run warms the caches and is not reported; then ``--repeat``
runs follow, and each line gives the median seconds over them beside the
counts of one run (every run reads the same).  Ensembles run serially.

Usage::

    python tools/readers.py osc-scan [--seed 1] [--repeat 3]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

from hjreg.cli import main as hjreg_main  # noqa: E402
from hjreg.grid import SliceTables  # noqa: E402
from run import CONFIG, OUT, WORKLOADS  # noqa: E402


class ReadClock:
    """Wraps ``SliceTables.take``, ``_fill`` and ``_jumps``; one
    :meth:`reset` per run."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.decided: dict[str, int] = defaultdict(int)
        self.computed: dict[str, int] = defaultdict(int)
        self.take_s = 0.0

    def install(self) -> None:
        take, fill, jumps = SliceTables.take, SliceTables._fill, SliceTables._jumps
        clock = self

        def timed_take(tables, lo, hi, slab):
            start = time.perf_counter()
            take(tables, lo, hi, slab)
            clock.take_s += time.perf_counter() - start

        def timed_fill(tables, block, read, skip, out):
            start = time.perf_counter()
            computed = fill(tables, block, read, skip, out)
            name = read.kind + (" -f" if read.negated else "")
            clock.seconds[name] += time.perf_counter() - start
            (clock.computed if computed else clock.decided)[name] += 1
            return computed

        def timed_jumps(tables, lo, hi, slab, reads):
            start = time.perf_counter()
            jumps(tables, lo, hi, slab, reads)
            clock.seconds["jumps"] += time.perf_counter() - start
            clock.computed["jumps"] += len(reads)

        SliceTables.take, SliceTables._fill = timed_take, timed_fill
        SliceTables._jumps = timed_jumps


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
    clock = ReadClock()
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
                runs.append((dict(clock.seconds), clock.take_s))
        finally:
            os.chdir(home)
    runs = runs[1:]
    print(f"{'read':<12}{'decided':>9}{'computed':>10}{'seconds':>10}")
    for name in sorted(set(clock.decided) | set(clock.computed)):
        seconds = statistics.median(s.get(name, 0.0) for s, _ in runs)
        print(f"{name:<12}{clock.decided[name]:>9}{clock.computed[name]:>10}"
              f"{seconds:>10.4f}")
    reads = statistics.median(sum(s.values()) for s, _ in runs)
    take = statistics.median(t for _, t in runs)
    print(f"{'reads':<31}{reads:>10.4f}")
    print(f"{'take':<31}{take:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
