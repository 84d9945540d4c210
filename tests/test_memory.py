"""Peak memory of the trajectory-sized steps, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call is the largest total of arrays it had alive at once, counted from the
moment tracing starts (arrays built before, such as the input field, are
not counted).
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hjreg import experiment
from hjreg.experiment import (
    ExperimentConfig,
    InitialDataSpec,
    SweepSettings,
    parse_config,
)
from hjreg.grid import _BLOCK_CELLS, GridSpec, make_field
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.oscillation import barrier_field, build_constant_chain, time_reverse
from hjreg.rescale import gauge_to_window
from hjreg.solver import (
    hopf_lax,
    residual_subsolution,
    residual_supersolution,
    solve,
)

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
    """A reduced residual keeps a per-slice table, not a trajectory, also
    with the subsolution residual evaluated in the same pass: its three
    work arrays and the ball's cells of one block are the peak."""
    env = CoercivityEnvelope(lam=2.0, p=1.5)
    f = make_field(_SPEC, lambda t, x: t * np.cos(x[..., 0]) + x[..., 1] ** 2)
    ball = np.linalg.norm(_SPEC.centers(), axis=-1) < 1.0
    sub, peak = _traced_peak(
        lambda: residual_subsolution(f, env, ball=ball, reduce=True)
    )
    assert sub.values.shape == (_SPEC.n_slices - 1, 3)
    assert peak <= 4 * _BLOCK_BYTES
    both, peak = _traced_peak(lambda: residual_supersolution(
        f, env, ball=ball, reduce=True, upper=(0.5, 2.0)
    ))
    assert both.upper.values.shape == (_SPEC.n_slices - 1, 3)
    assert peak <= 4 * _BLOCK_BYTES


def test_barrier_field_builds_one_array():
    chain = build_constant_chain(2, 1.5, 1.0, 1.0)
    psi, peak = _traced_peak(lambda: barrier_field(chain, _SPEC))
    assert psi.values.nbytes == _TRAJECTORY
    # the filled array is the field's, not copied; the rest is O(cells)
    assert peak <= _TRAJECTORY + 64 * _CELL_BYTES + _SLACK


def test_time_reverse_builds_one_array():
    f = make_field(_SPEC, lambda t, x: t * x[..., 0])
    v, peak = _traced_peak(lambda: time_reverse(f))
    assert v.values.flags.c_contiguous
    assert peak <= _TRAJECTORY + _SLACK


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


def test_oracle_levels_hold_one_trajectory_at_a_time():
    """Each refinement level's trajectory is dropped before the oracle runs
    and before the next level solves, so the finest one sets the peak."""
    cfg = parse_config("hopf-lax-validation")
    cfg = replace(cfg, oracle=replace(cfg.oracle, refinements=2))
    finest = experiment._oracle_grids(cfg)[-1]
    finest_bytes = finest.n_slices * finest.cells_per_axis * 8
    (status, _), peak = _traced_peak(lambda: experiment._oracle_outcome(cfg))
    assert status == "pass"
    # the level before is a quarter of the finest
    assert peak <= finest_bytes + 2 * _BLOCK_BYTES


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
