"""A batch of members marched together against each member's own solve.

``solve`` of a list of initial data marches every member in one kernel
call a step, and one ``SliceScan`` hands every member's block of slices to
the readers at once.  Each member's kept slices, per-step diagnostics,
per-slice tables and residual rows, and the report a run of it writes,
must equal its one-at-a-time run by ``==``.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hjreg import experiment
from hjreg.experiment import ChainSettings, ExperimentConfig
from hjreg.grid import (
    GridSpec,
    ScalarField,
    SliceRead,
    SliceScan,
    SliceTables,
    ball_mask,
)
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.rescale import gauge_to_window
from hjreg.solver import ResidualRows, ResidualTerm, SolveConfig, SolverError, solve

from conftest import gauge_scan

HAMILTONIANS = [
    HamiltonianSpec(kind="power-law", p=1.5),
    HamiltonianSpec(kind="scaled-power-law", p=2.0, coefficient=0.5, offset=0.25),
    HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.3),
]


def _outcome(fn):
    """``("ok", value)``, or ``("abort", message, step_index)``."""
    try:
        return ("ok", fn())
    except SolverError as err:
        return ("abort", str(err), err.step_index)


@st.composite
def batches(draw):
    """A grid of 1 to 3 dimensions, a Hamiltonian, 1 to 5 members' data,
    the slices to keep and a block size of one to four member blocks."""
    dim = draw(st.integers(1, 3))
    cells = draw(st.integers(*{1: (12, 48), 2: (12, 20), 3: (12, 13)}[dim]))
    n_steps = draw(st.integers(1, 30))
    dt = draw(st.sampled_from([0.001, 0.004, 0.02]))
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=cells,
                    t_start=0.0, t_end=n_steps * dt, dt=dt)
    members = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.002, 0.05, 0.5]))
    data = [scale * rng.standard_normal(spec.spatial_shape) for _ in range(members)]
    keep = [range(lo, lo + draw(st.integers(0, 3)))
            for lo in draw(st.lists(st.integers(0, spec.n_slices - 1), max_size=3))]
    return (spec, draw(st.sampled_from(HAMILTONIANS)), data, keep,
            draw(st.integers(1, 4)))


def _march(spec, h, u0, keep, members, block_slices):
    """``solve`` of ``u0`` feeding one scan of per-slice tables and residual
    rows of ``members`` rows, in blocks of ``block_slices`` slices."""
    reads = [SliceRead("max", 1.0), SliceRead("min", None, negated=True),
             SliceRead("count", 1.0, (0.0, -0.01, 0.01, True)),
             SliceRead("excess", 1.0, (0.0,)), SliceRead("gradient", 1.0, (0.0, 1.5)),
             SliceRead("jumps", 1.0), SliceRead("jumps", None)]
    terms = [ResidualTerm(0.5, 1.0), ResidualTerm(2.0, reflected=True)]
    tables = SliceTables(spec, reads, members)
    rows = ResidualRows(spec, 1.5, terms, ball_mask(spec, 1.0), members)
    block = 2 * members * block_slices * math.prod(spec.spatial_shape)
    with mock.patch("hjreg.grid._BLOCK_CELLS", block):
        scan = SliceScan(spec, [tables, rows], members)
    cfg = SolveConfig(cfl_safety=0.9)
    return solve(spec, h, u0, cfg, keep, scan), tables, rows


@settings(max_examples=60, deadline=None)
@given(batch=batches())
def test_a_batch_marches_each_member_as_its_own_solve(batch):
    spec, h, data, keep, block_slices = batch
    k = len(data)
    together = _outcome(lambda: _march(spec, h, data, keep, k, block_slices))
    alone = [_outcome(lambda: _march(spec, h, u0, keep, 1, block_slices))
             for u0 in data]
    aborts = [(out[2], m) for m, out in enumerate(alone) if out[0] == "abort"]
    event("abort" if aborts else "marched")
    if aborts:
        # the batch stops at the first step any member aborts, with the
        # lowest such member's error
        step, m = min(aborts)
        assert together == alone[m]
        return
    traj, tables, rows = together[1]
    for m, (_, (solo, solo_tables, solo_rows)) in enumerate(alone):
        member = traj.member(m)
        assert member.field.values.tobytes() == solo.field.values.tobytes()
        assert np.array_equal(member.field.kept, solo.field.kept)
        assert member.cfl_margins.tobytes() == solo.cfl_margins.tobytes()
        assert member.max_updates.tobytes() == solo.max_updates.tobytes()
        for read, table in tables.tables.items():
            assert table[m].tobytes() == solo_tables.tables[read][0].tobytes()
        for table, solo_table in zip(rows.tables, solo_rows.tables):
            assert table[m].tobytes() == solo_table[0].tobytes()


def test_a_batch_gauges_each_member_as_its_own_solve():
    """Member 0's steep data fails the gauge's residual in the first block
    and member 1's constant data never does: the batch takes the gauge's
    rows to the end of the march, and each member's verdict and cap are
    those of its own solve, whose rows stop where its own gauge fails."""
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=12,
                    t_start=0.0, t_end=0.5, dt=0.005)
    h = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=2.0)
    env = CoercivityEnvelope(lam=1.0, p=1.5)
    data = [2.0 * np.sin(2.0 * spec.centers()[..., 0]), np.zeros(spec.spatial_shape)]
    cells = math.prod(spec.spatial_shape)
    with mock.patch("hjreg.grid._BLOCK_CELLS", 2 * 2 * 10 * cells):
        scan, tables, rows = gauge_scan(spec, env, members=2)
    batch = solve(spec, h, data, scan=scan)
    verdicts, solo_rows = [], []
    for m, u0 in enumerate(data):
        with mock.patch("hjreg.grid._BLOCK_CELLS", 10 * cells):
            solo_scan, solo_tables, solo = gauge_scan(spec, env)
        field = solve(spec, h, u0, scan=solo_scan).field
        [solo_report], [report] = solo.reports(), rows.reports(m)
        own, own_gauged, own_gamma = gauge_to_window(field, env, solo_tables, solo_report)
        out, gauged, gamma = gauge_to_window(batch.member(m).field, env,
                                             tables.member(m), report)
        assert (out.rate, gauged, gamma) == (own.rate, own_gauged, own_gamma)
        assert len(report.values) == spec.n_steps
        verdicts.append(gauged)
        solo_rows.append(len(solo_report.values))
    assert verdicts == [True, False]
    assert solo_rows == [10, spec.n_steps]


def _config(dim: int, seed: int) -> ExperimentConfig:
    """A small run of each dimension: in 1-D the oracle over one
    refinement (no check reads a 1-D march), in 2-D and 3-D the lemma and
    oscillation checks, and in 2-D a one-level cascade, whose zoom reads
    the member's gauge tables and residual rows and its kept slices."""
    if dim == 1:
        return ExperimentConfig.from_json_dict({
            "scenario": "members-1d",
            "grid": {"dimension": 1, "half_width": 2.0, "cells_per_axis": 32,
                     "t_start": 0.0, "t_end": 0.5, "dt": 0.01},
            "hamiltonian": {"kind": "power-law", "p": 2.0},
            "initial_data": {"name": "random-trig",
                             "parameters": {"amplitude": 0.3}, "seed": seed},
            "oracle": {"refinements": 1, "max_error": 0.5},
        })
    checks = ["lemma1", "lemma2", "osc_above", "osc_below"]
    return ExperimentConfig.from_json_dict({
        "scenario": f"members-{dim}d",
        "grid": {"dimension": dim, "half_width": 1.5, "cells_per_axis": 12,
                 "t_start": -2.0, "t_end": 2.0, "dt": 0.05},
        "hamiltonian": {"kind": "power-law", "p": 1.5},
        "initial_data": {"name": "random-trig",
                         "parameters": {"amplitude": 0.05, "offset": -0.01},
                         "seed": seed},
        "checks": checks + ["cascade"] if dim == 2 else checks,
        "cascade": {"levels": 1, "working_cells": 8, "working_slices": 8},
    })


def _members(cfg, seeds):
    return [replace(cfg, initial_data=replace(cfg.initial_data, seed=s)) for s in seeds]


@settings(max_examples=12, deadline=None)
@given(dim=st.integers(1, 3), seeds=st.lists(st.integers(0, 2**20), min_size=1,
                                             max_size=5))
def test_a_batch_of_runs_writes_each_member_s_own_report(dim, seeds):
    jobs = _members(_config(dim, 0), seeds)
    together = experiment._compute_members(jobs)
    for job, (report, outputs) in zip(jobs, together):
        solo, solo_outputs = experiment._compute(job)
        assert report.stable_bytes() == solo.stable_bytes()
        assert outputs.keys() == solo_outputs.keys()
        for name, payload in outputs.items():
            if isinstance(payload, ScalarField):
                assert payload.values.tobytes() == solo_outputs[name].values.tobytes()
            else:
                assert payload == solo_outputs[name]


def test_a_batch_with_an_aborting_member_reruns_each_member_alone(monkeypatch):
    """At this step, seeds 1 and 4 break the CFL condition at step 0 and
    the others pass: the batch aborts, each member runs on its own, and
    every report, the aborts' messages and step indices included, is its
    solo run's."""
    cfg = ExperimentConfig.from_json_dict({
        "scenario": "abort-mix",
        "grid": {"dimension": 2, "half_width": 1.5, "cells_per_axis": 12,
                 "t_start": -2.0, "t_end": 2.0, "dt": 4.0 / 195},
        "hamiltonian": {"kind": "power-law", "p": 1.5},
        "initial_data": {"name": "random-trig", "parameters": {"amplitude": 1.0}},
        "checks": ["lemma1", "osc_above"],
    })
    jobs = _members(cfg, range(6))
    marched = []
    original = experiment.solve

    def counted(spec, h, u0, *args, **kwargs):
        marched.append(len(u0))
        return original(spec, h, u0, *args, **kwargs)

    monkeypatch.setattr(experiment, "solve", counted)
    together = experiment._compute_members(jobs)
    assert marched == [6, 1, 1, 1, 1, 1, 1]
    monkeypatch.setattr(experiment, "solve", original)
    errors = []
    for job, (report, _) in zip(jobs, together):
        solo, _ = experiment._compute(job)
        assert report.stable_bytes() == solo.stable_bytes()
        errors.append(report.error and report.error["step_index"])
    assert errors == [None, 0, None, None, 0, None]


def test_one_process_pool_serves_every_candidate(tmp_path, monkeypatch):
    """A two-worker empirical ensemble whose candidates are all refuted
    runs each candidate on the one pool it starts, each worker marching a
    contiguous chunk of members as one batch, and writes the serial
    ensemble's report."""
    import concurrent.futures

    pools, chunks = [], []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

        def map(self, fn, *iterables, **kwargs):
            jobs = list(iterables[0])
            chunks.append([[job.initial_data.seed for job in chunk] for chunk in jobs])
            return super().map(fn, jobs, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    # lemma1 does not read the chain, and refutes this scenario's data
    cfg = replace(experiment.parse_config("refuted-fixture"),
                  chain=ChainSettings(mode="empirical", candidates=(4.0, 1.0)))
    parallel = experiment.ensemble(cfg, 3, 5, out_dir=tmp_path / "p", workers=2)
    assert pools == [2]
    assert len(parallel.chain_search) == len(chunks) == 2
    seeds = list(parallel.member_seeds)
    assert chunks == [[seeds[:2], seeds[2:]]] * 2
    serial = experiment.ensemble(cfg, 3, 5, out_dir=tmp_path / "s", workers=1)
    assert pools == [2]
    assert parallel.stable_bytes() == serial.stable_bytes()


@pytest.mark.parametrize("members", [1, 3])
def test_a_batch_refuses_data_of_another_shape(members):
    spec = GridSpec(dimension=2, half_width=1.5, cells_per_axis=12,
                    t_start=0.0, t_end=0.1, dt=0.01)
    u0 = [np.zeros(spec.spatial_shape)] * (members - 1) + [np.zeros(7)]
    with pytest.raises(ValueError, match="does not match grid"):
        solve(spec, HAMILTONIANS[0], u0)
