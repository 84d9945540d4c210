"""Peak memory of the trajectory-sized steps, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call is the largest total of arrays it had alive at once, counted from the
moment tracing starts (arrays built before, such as the input field, are
not counted).
"""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from hjreg import experiment
from hjreg.degiorgi import lemma_one_check, lemma_two_check
from hjreg.experiment import (
    ExperimentConfig,
    InitialDataSpec,
    SweepSettings,
    TheoremSettings,
    parse_config,
)
from hjreg.grid import (
    _BLOCK_CELLS,
    Cylinder,
    GridSpec,
    one_cell_oscillation,
)
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.oscillation import (
    barrier_field,
    build_constant_chain,
    comparison_check,
    oscillation_below_check,
)
from hjreg.rescale import base_point_slices, gauge_to_window
from hjreg.solver import (
    SolveConfig,
    _StepKernel,
    hopf_lax,
    residual_subsolution,
    residual_supersolution,
    solve,
)

from reference import make_field

# Long enough in time that a trajectory (12 MB, more than eleven blocks)
# outweighs the residual's block-sized work arrays (three, 3 MB).
_SPEC = GridSpec(dimension=2, half_width=1.5, cells_per_axis=24,
                 t_start=-2.0, t_end=2.0, dt=4.0 / 2600)
_TRAJECTORY = _SPEC.n_slices * math.prod(_SPEC.spatial_shape) * 8
_CELL_BYTES = math.prod(_SPEC.spatial_shape) * 8
_BLOCK_BYTES = _BLOCK_CELLS * 8
_SLACK = 1 << 17


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_holds_one_trajectory_plus_cell_buffers():
    h = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25)
    traj, peak = _traced_peak(
        lambda: solve(_SPEC, h, lambda x: 0.3 * np.sin(2.0 * x[..., 0]))
    )
    assert traj.field.values.nbytes == _TRAJECTORY
    # work buffers, centers, coefficient and eval temporaries: O(cells)
    assert peak <= _TRAJECTORY + 64 * _CELL_BYTES + _SLACK


@pytest.mark.parametrize("gauged", [False, True])
def test_gauge_to_window_peaks_at_block_sized_temporaries(gauged):
    env = CoercivityEnvelope(lam=2.0, p=1.5)
    slope = -5.0 if gauged else 0.0
    f = make_field(_SPEC, lambda t, x: slope * t + 0.1 * np.cos(x[..., 0]))
    (out, was_gauged, gamma), peak = _traced_peak(lambda: gauge_to_window(f, env))
    assert was_gauged is gauged
    # the raw field and the rate, never a shifted copy
    assert out.field is f
    assert out.rate == (env.lam if gauged else 0.0)
    # the residual's three block-sized work arrays, no field-sized array: a
    # trajectory is more than eleven blocks
    assert peak <= 4 * _BLOCK_BYTES
    assert _TRAJECTORY > 11 * _BLOCK_BYTES


def test_run_path_residuals_peak_at_block_sized_temporaries():
    """A residual keeps a per-slice table, not a trajectory, also
    with the subsolution residual evaluated in the same pass: its three
    work arrays and the ball's cells of one block are the peak."""
    env = CoercivityEnvelope(lam=2.0, p=1.5)
    f = make_field(_SPEC, lambda t, x: t * np.cos(x[..., 0]) + x[..., 1] ** 2)
    ball = np.linalg.norm(_SPEC.centers(), axis=-1) < 1.0
    sub, peak = _traced_peak(
        lambda: residual_subsolution(f, env, ball=ball)
    )
    assert sub.values.shape == (_SPEC.n_slices - 1, 3)
    assert peak <= 4 * _BLOCK_BYTES
    both, peak = _traced_peak(lambda: residual_supersolution(
        f, env, ball=ball, upper=(0.5, 2.0)
    ))
    assert both.upper.values.shape == (_SPEC.n_slices - 1, 3)
    assert peak <= 4 * _BLOCK_BYTES


def test_comparison_check_holds_one_trajectory_beside_its_input():
    """The margin is the one trajectory-sized array: the barrier is sampled
    into it a slice at a time, after the residual precondition, and the
    worst cells are picked a block at a time.  The field sinks under the
    barrier's plateau, where every cell of a slice ties, on every block."""
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    plateau = -2.0 + chain.barrier_height
    f = make_field(_SPEC, lambda t, x: plateau - 0.1 * (t + 2.0))
    report, peak = _traced_peak(
        lambda: comparison_check(f, chain, residual_tol=math.inf))
    assert peak < 1.3 * _TRAJECTORY
    margin = f.values - barrier_field(chain, _SPEC).values
    order = np.argsort(margin, axis=None, kind="stable")[:8]
    assert report.n_violations == np.count_nonzero(margin < 0.0) > 8
    assert report.worst_cells == tuple(
        tuple(int(i) for i in np.unravel_index(k, margin.shape)) for k in order
    )


@pytest.mark.parametrize("hamiltonian", [
    HamiltonianSpec(kind="power-law", p=2.0),
    HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25),
], ids=["power-law", "rough-coefficient"])
def test_one_step_allocates_less_than_a_slice(hamiltonian):
    """The step writes every intermediate, the Hamiltonian's value too, into
    buffers the kernel allocated once."""
    spec = GridSpec(dimension=3, half_width=1.0, cells_per_axis=48,
                    t_start=0.0, t_end=0.01, dt=0.001)
    kernel = _StepKernel(spec, hamiltonian, SolveConfig())
    u = 0.3 * np.sin(2.0 * spec.centers()[..., 0])
    out = np.empty_like(u)
    _, peak = _traced_peak(lambda: kernel(u, 0.0, 0, out))
    assert peak < u.nbytes


@pytest.mark.parametrize("cylinder", [None, Cylinder(-1.0, 1.0, (0.0, 0.0), 1.0)],
                         ids=["whole-box", "ball"])
def test_one_cell_oscillation_peaks_at_block_sized_temporaries(cylinder):
    """Each axis's jumps are a shifted-slice difference into one buffer of a
    block; a ball window gathers only its pairs' differences, once."""
    f = make_field(_SPEC, lambda t, x: np.cos(3.0 * x[..., 0] + t) * x[..., 1])
    jump, peak = _traced_peak(lambda: one_cell_oscillation(f, cylinder))
    assert jump > 0.0
    assert peak <= 3 * _BLOCK_BYTES


def test_barrier_field_builds_one_array():
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    psi, peak = _traced_peak(lambda: barrier_field(chain, _SPEC))
    assert psi.values.nbytes == _TRAJECTORY
    # the filled array is the field's, not copied; the rest is O(cells)
    assert peak <= _TRAJECTORY + 64 * _CELL_BYTES + _SLACK


def test_reflected_check_peaks_below_one_trajectory():
    """The improvement from below reads its reflection ``-f(-t, x)`` a
    block of slices at a time, never as a whole reversed copy."""
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    f = make_field(_SPEC, lambda t, x: 0.5 * np.cos(x[..., 0] + t))
    verdict, peak = _traced_peak(lambda: oscillation_below_check(f, chain))
    assert verdict.diagnostics["reflected_above"]["name"] == (
        "oscillation-improvement-above")
    assert peak < _TRAJECTORY


@pytest.mark.parametrize("check, mass", [
    (lambda f, env: lemma_one_check(f, env, 0.1), "plus_mass"),
    (lambda f, env: lemma_two_check(f, env, 1.0, 0.1), "above_mass"),
], ids=["lemma1", "lemma2"])
def test_lemma_checks_peak_below_one_trajectory(check, mass):
    """The positive parts the lemmas integrate are taken a block at a time."""
    env = CoercivityEnvelope(lam=1.0, p=1.5)
    f = make_field(_SPEC, lambda t, x: 1.5 * np.cos(x[..., 0] + t))
    verdict, peak = _traced_peak(lambda: check(f, env))
    values = {**verdict.hypothesis_values, **verdict.conclusion_values}
    assert values[mass] > 0.0
    assert peak < _TRAJECTORY


def test_windowed_theorem_run_peaks_below_one_trajectory(monkeypatch):
    """A theorem-only run keeps the slices around its base times and takes
    the gauge's reductions inside the march, so the whole run, solve
    included, peaks below the trajectory it marches through."""
    kept = []
    original = experiment.solve

    def solve(*args, **kwargs):
        traj = original(*args, **kwargs)
        kept.append(traj.field)
        return traj

    monkeypatch.setattr(experiment, "solve", solve)
    cfg = ExperimentConfig(
        scenario="theorem-memory",
        grid=replace(_SPEC, t_start=0.0, t_end=4.0),
        hamiltonian=HamiltonianSpec(kind="power-law", p=1.5),
        initial_data=InitialDataSpec(name="random-trig",
                                     parameters={"amplitude": 0.5}, seed=2),
        checks=("theorem",),
        theorem=TheoremSettings(points_per_axis=2, levels=2, working_cells=16,
                                working_slices=16),
    )
    (report, _), peak = _traced_peak(lambda: experiment._compute(cfg))
    assert report.status == "pass"
    [field] = kept
    assert field.kept is not None
    chain = experiment._build_chain(cfg)
    declared = {i for t0 in (2.0, 4.0)
                for i in base_point_slices(cfg.grid, chain, t0)}
    snapshots = {0, 1, cfg.grid.n_slices - 2, cfg.grid.n_slices - 1}
    assert set(field.kept.tolist()) == declared | snapshots
    assert peak < _TRAJECTORY


def test_sweep_frees_each_trajectory_before_the_next_solve(monkeypatch, tmp_path):
    live = []
    original = experiment.solve

    def solve(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "solve", solve)
    cfg = ExperimentConfig(
        scenario="sweep-memory",
        grid=_SPEC,
        hamiltonian=HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0),
        envelope=CoercivityEnvelope(lam=2.0, p=1.5),
        initial_data=InitialDataSpec(name="random-trig",
                                     parameters={"amplitude": 0.5}),
        sweep=SweepSettings(parameter="eta", values=(0.25, 0.125)),
    )
    report, _ = _traced_peak(lambda: experiment.run(cfg, out_dir=tmp_path))
    assert report.status == "pass"
    assert len(live) == 2
    # the first variant's trajectory is gone when the second one solves
    assert live[1] - live[0] < _TRAJECTORY / 4


def test_oracle_levels_hold_one_trajectory_at_a_time(monkeypatch):
    """Each refinement level's solve keeps only the slice the oracle reads,
    so no level holds a trajectory.  On the run path the oracle's level 0
    is one slice of the run's own solve, copied out of a trajectory that is
    gone when the oracle starts."""
    cfg = parse_config("hopf-lax-validation")
    cfg = replace(cfg, oracle=replace(cfg.oracle, refinements=2))
    finest = experiment._oracle_grids(cfg)[-1]
    finest_bytes = finest.n_slices * finest.cells_per_axis * 8
    (status, _), peak = _traced_peak(lambda: experiment._oracle_outcome(cfg))
    assert status == "pass"
    assert peak < finest_bytes / 2

    trajectories, seen = [], []
    original_solve, original_outcome = experiment.solve, experiment._oracle_outcome

    def solve(*args, **kwargs):
        traj = original_solve(*args, **kwargs)
        trajectories.append(weakref.ref(traj.field.values))
        return traj

    def outcome(cfg, base=None):
        seen.append(([ref() is None for ref in trajectories], base))
        return original_outcome(cfg, base)

    monkeypatch.setattr(experiment, "solve", solve)
    monkeypatch.setattr(experiment, "_oracle_outcome", outcome)
    (report, _), peak = _traced_peak(lambda: experiment._compute(cfg))
    assert report.status == "pass"
    [(freed, base)] = seen
    assert freed == [True]
    assert base.shape == cfg.grid.spatial_shape and base.base is None
    # the run's solve and the two refinements
    assert len(trajectories) == 3
    assert peak < finest_bytes / 2


def test_batched_oracle_peaks_at_block_sized_temporaries():
    """The oracle runs its points in chunks of about ``_BLOCK_CELLS``
    candidates: doubling a 2-D batch (49 candidates a point, each of two
    coordinates) leaves the peak where it was."""
    rng = np.random.default_rng(3)
    peaks = []
    for m in (2700, 5400):
        pts = rng.uniform(-1.5, 1.5, (m, 2))
        values, peak = _traced_peak(
            lambda: hopf_lax(lambda y: np.linalg.norm(y, axis=-1), 0.5, pts, 2.0)
        )
        assert values.shape == (m,)
        peaks.append(peak)
    # the 5400-point lattice alone would be four block-sized arrays
    assert peaks[1] - peaks[0] <= _SLACK
    assert peaks[1] <= 12 * _BLOCK_BYTES
