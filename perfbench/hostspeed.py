"""Host speed reference: fixed work timed on the benchmark's CPU between children.

The small sandboxes this benchmark targets are shares of larger hosts whose
other tenants change the speed of a CPU by a third or more, for seconds to
minutes at a time, with no steal time and no hardware counters to show it.
The benchmark therefore pins itself and its children to one CPU and, before
the first child and after every child, times a fixed piece of work of the
kind hjreg does: an interpreted integer loop and small numpy array
operations driven from Python.  A time measured in a child is scaled by
``NOMINAL_S`` over the mean of the samples taken just before and just after
it, so it reads as seconds on a CPU that runs the reference in
``NOMINAL_S``.  The reference is part of the benchmark, never of the program,
so a change to hjreg moves the scaled times exactly as it moves the raw ones.

Interpreter start-up and hjreg's per-call work follow the reference: on a
2-core x86-64 sandbox the quartile spread over median of sets of five to ten
``oracle-refine`` runs fell from 0.15-0.35 measured to 0.06-0.14 scaled.
Large-array work does not (the ``zoom-sweep`` solver's times were
uncorrelated with the reference), and scaling it would only add the
reference's own noise.
"""

from __future__ import annotations

import os
import time

import numpy as np

# About the reference time on a 2-core x86-64 sandbox; it only sets the
# scale of the reported times.
NOMINAL_S = 0.40
PASSES = 10


def _interpreter_pass() -> float:
    begin = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - begin


def _array_pass() -> float:
    grid = np.linspace(-1.0, 1.0, 801)
    begin = time.perf_counter()
    acc = 0.0
    for step in range(1000):
        shifted = np.maximum(grid - 1e-4 * step, 0.0)
        acc += float(np.abs(np.diff(shifted)).max())
        acc += float(np.sort(shifted[::-1])[400])
    return time.perf_counter() - begin


def pin() -> int:
    """Bind this process, and the children it starts later, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def sample() -> float:
    """Seconds taken by the reference work, about ``NOMINAL_S``."""
    return sum(_interpreter_pass() + _array_pass() for _ in range(PASSES))


def at_nominal(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two reference samples, at nominal speed."""
    return seconds * NOMINAL_S * 2.0 / (before + after)
