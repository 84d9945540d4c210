"""Tests of the benchmark's own arithmetic and gates.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import spans


def test_self_time_subtracts_nested_children():
    tree = [
        ["root", None, 0.0, 10.0, None],
        ["a", 0, 1.0, 4.0, None],
        ["a.inner", 1, 2.0, 3.0, None],
        ["b", 0, 5.0, 6.0, None],
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [
        ["root", None, 0.0, 10.0, None],
        ["a", 0, 1.0, 5.0, None],
        ["b", 0, 3.0, 7.0, None],
        ["c", 0, 8.0, 12.0, None],  # runs past its parent; only 8..10 counts
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 2.0)


class _Clock:
    """Deterministic clock: every read advances one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


class _Traj:
    class field:
        values = type("Values", (), {"shape": (5, 3, 4)})()


class SolverError(RuntimeError):
    pass


def test_summary_counts_cascade_resolves_and_retries():
    tracer = spans.Tracer(clock=_Clock())
    attempts = iter([False, True])

    def solve():
        if not next(attempts):
            raise SolverError("abort")
        return _Traj()

    solve = tracer.wrap("solver.solve", solve, spans._trajectory_counts)

    def zoom_cascade():
        try:
            solve()
        except SolverError:
            solve()

    tracer.wrap("rescale.zoom_cascade", zoom_cascade)()
    out = spans.summarize(tracer)
    # cascade span 1..6 holds solves 2..3 and 4..5: self time 5 - 2
    assert out["rescale.zoom_cascade.self_s"] == pytest.approx(3.0)
    assert out["solver.solve.calls"] == 2
    assert out["solver.solve.failed"] == 1
    assert out["rescale.zoom_cascade.resolves"] == 2
    assert out["rescale.zoom_cascade.retries"] == 1
    assert out["solver.solve.cell_steps"] == 4 * 12
    assert out["solver.solve.traj_bytes"] == 5 * 12 * 8
    assert out["solver.solve.cell_steps_per_s"] == pytest.approx(48 / 2.0)


def test_traced_run_reports_exactly_the_listed_metrics(tmp_path):
    (tmp_path / "report.json").write_text("{}")
    traced = {"layers": spans.summarize(spans.Tracer()), "wall_s": 2.5}
    got = run.layer_metrics(traced, {"chain_search": [{}]}, tmp_path, 2.0)
    assert got["experiment.search_trials"] == 1
    assert got["experiment.files_written"] == 1
    assert got["trace.overhead_s"] == pytest.approx(0.5)
    timed = [{"wall_raw_s": 3.0, "setup_raw_s": 1.0, "ref_s": 0.5},
             {"setup_raw_s": 2.0, "ref_s": 0.3}]
    host = run.host_metrics(timed[:1], timed)
    assert host == pytest.approx(
        {"host.wall_raw_s": 3.0, "host.setup_raw_s": 1.5, "host.ref_s": 0.4})
    listed = run.metric_units(trace=True)
    assert set(got) | set(host) | {"error_rate"} == set(listed)
    for workload in run.WORKLOADS.values():
        assert set(workload.required) <= set(listed)


def test_host_scaling_divides_by_the_mean_reference():
    nominal = hostspeed.NOMINAL_S
    # a CPU running the reference in twice the nominal time halves the reading
    assert hostspeed.at_nominal(8.0, 1.5 * nominal, 2.5 * nominal) == pytest.approx(4.0)
    assert hostspeed.at_nominal(3.0, nominal, nominal) == pytest.approx(3.0)
    assert hostspeed.sample() > 0.0


def test_install_rebinds_every_importer():
    sys.path.insert(0, str(run.SRC))
    import hjreg.cli  # noqa: F401
    from hjreg import experiment, hamiltonians, rescale, solver

    modules = [m for n, m in sys.modules.items() if n.startswith("hjreg")]
    saved = {m: dict(vars(m)) for m in modules}
    saved_eval = {
        cls: cls.__dict__["eval"]
        for cls in (hamiltonians.HamiltonianSpec, hamiltonians.TransformedHamiltonian)
    }
    original = solver.solve
    try:
        spans.install(spans.Tracer())
        for mod in (solver, experiment, rescale):
            assert mod.solve is not original
            assert mod.solve.__wrapped__ is original
        assert hjreg.cli.parse_config is experiment.parse_config
        assert hamiltonians.HamiltonianSpec.eval.__wrapped__ is saved_eval[
            hamiltonians.HamiltonianSpec]
    finally:
        for mod, attrs in saved.items():
            vars(mod).update(attrs)
        for cls, fn in saved_eval.items():
            cls.eval = fn


def _report(tmp_path: Path, body: str) -> Path:
    path = tmp_path / "report.json"
    path.write_text(body)
    return path


def test_nonzero_exit_is_a_failure(tmp_path):
    path = _report(tmp_path, json.dumps({"status": "pass"}))
    for code in (1, 2, 3, None):
        assert run.judge(code, path, None, False)[1] is not None
    assert run.judge(0, path, None, False) == (
        run.report_digest({"status": "pass"}), None)


def test_corrupt_or_missing_report_is_a_failure(tmp_path):
    path = _report(tmp_path, '{"status": "pass", "checks": [')
    assert "unreadable" in run.judge(0, path, None, False)[1]
    assert "unreadable" in run.judge(0, tmp_path / "absent.json", None, False)[1]


def test_digest_ignores_timings_but_not_results(tmp_path):
    first = {"status": "pass", "checks": [{"check": "oracle", "status": "pass"}],
             "timings": {"total": 1.0}}
    reference = run.report_digest(first)
    same = dict(first, timings={"total": 2.0})
    path = _report(tmp_path, json.dumps(same))
    assert run.judge(0, path, reference, True) == (reference, None)
    changed = dict(first, checks=[{"check": "oracle", "status": "refuted"}])
    path = _report(tmp_path, json.dumps(changed))
    assert "differs" in run.judge(0, path, reference, True)[1]
    assert "oracle" in run.judge(0, path, None, True)[1]


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "osc-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
