"""Peak memory of the trajectory-sized steps, measured with tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call is the largest total of arrays it had alive at once, counted from the
moment tracing starts (arrays built before, such as the input field, are
not counted).
"""

import math
import tracemalloc

import numpy as np
import pytest

from hjreg.grid import _BLOCK_CELLS, GridSpec, make_field
from hjreg.hamiltonians import CoercivityEnvelope, HamiltonianSpec
from hjreg.oscillation import time_reverse
from hjreg.rescale import gauge_to_window
from hjreg.solver import solve

# Long enough in time that a trajectory (12 MB) outweighs the residual's
# block-sized temporaries (three, 3 MB).
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
def test_gauge_to_window_stays_below_three_trajectories(gauged):
    env = CoercivityEnvelope(lam=2.0, p=1.5)
    slope = -5.0 if gauged else 0.0
    f = make_field(_SPEC, lambda t, x: slope * t + 0.1 * np.cos(x[..., 0]))
    (out, was_gauged, gamma), peak = _traced_peak(lambda: gauge_to_window(f, env))
    assert was_gauged is gauged
    assert (out is f) is not gauged
    # one new field-sized array at a time: the residual (with its block
    # temporaries) or the shifted field
    assert peak <= _TRAJECTORY + 3.5 * _BLOCK_BYTES
    # with the input field, which is alive throughout and not traced
    assert _TRAJECTORY + peak < 3 * _TRAJECTORY


def test_time_reverse_builds_one_array():
    f = make_field(_SPEC, lambda t, x: t * x[..., 0])
    v, peak = _traced_peak(lambda: time_reverse(f))
    assert v.values.flags.c_contiguous
    assert peak <= _TRAJECTORY + _SLACK
