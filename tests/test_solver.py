"""Monotone marching scheme, variational oracle, and residual checks."""

import importlib.util
import math
import re
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjreg.solver
from hjreg.grid import GridSpec, SliceScan
from hjreg.hamiltonians import (
    CoercivityEnvelope,
    HamiltonianSpec,
    TransformedHamiltonian,
)
from hjreg.initial_data import make_initial_function
from hjreg.solver import (
    ResidualRows,
    ResidualTerm,
    SolveConfig,
    SolverError,
    hopf_lax,
    residual_subsolution,
    residual_supersolution,
    snap_dt,
    solve,
)

import reference
from conftest import const_field, coordinate_field, residual_reports, time_field
from reference import gauge_shift, make_field
from test_solver_kernel import kernel_step

QUADRATIC = HamiltonianSpec(kind="power-law", p=2.0)


@pytest.fixture(scope="module")
def line():
    """1-D lattice [-2, 2] with h = 1/8 and a comfortably CFL-safe dt."""
    return GridSpec(dimension=1, half_width=2.0, cells_per_axis=32,
                    t_start=0.0, t_end=0.5, dt=0.015625)


class TestStepPlanning:
    def test_snap_dt_rounds_down_to_divisor(self):
        assert snap_dt(0.0, 1.0, 0.3) == pytest.approx(0.25, rel=1e-12)

    def test_snap_dt_keeps_exact_divisor(self):
        assert snap_dt(0.0, 1.0, 0.25) == 0.25

    def test_snap_dt_guards(self):
        with pytest.raises(ValueError):
            snap_dt(1.0, 0.0, 0.1)


class TestStep:
    def test_constant_data_is_stationary(self, line):
        f = const_field(line, 3.0)
        out = kernel_step(f, QUADRATIC, 0, SolveConfig())
        np.testing.assert_array_equal(out, f.values[0])

    def test_offset_hamiltonian_drifts_constant_data(self, line):
        h = HamiltonianSpec(kind="scaled-power-law", p=2.0, coefficient=1.0,
                            offset=-2.0)
        f = const_field(line, 0.0)
        out = kernel_step(f, h, 0, SolveConfig())
        np.testing.assert_allclose(out, 2.0 * line.dt, rtol=1e-12)

    def test_cone_recedes_at_unit_rate_off_the_kink(self, line):
        f = make_field(line, lambda t, x: np.abs(x[..., 0]))
        out = kernel_step(f, QUADRATIC, 0, SolveConfig())
        centers = line.axis_centers()
        smooth = np.abs(centers) > 2 * line.cell_width
        smooth[:2] = smooth[-2:] = False
        np.testing.assert_allclose(
            out[smooth], np.abs(centers)[smooth] - line.dt, rtol=1e-12
        )

    def test_gauge_invariance_of_update(self, line):
        f = make_field(line, lambda t, x: 0.2 * np.sin(2.0 * x[..., 0]))
        shifted_h = TransformedHamiltonian(base=QUADRATIC, const=-1.0)
        plain = kernel_step(f, QUADRATIC, 0, SolveConfig())
        shifted = kernel_step(f, shifted_h, 0, SolveConfig())
        np.testing.assert_allclose(shifted, plain + line.dt, rtol=0, atol=1e-14)


class TestSolve:
    def test_zero_data_stays_zero(self, line):
        traj = solve(line, QUADRATIC, lambda x: np.zeros(x.shape[:-1]))
        assert np.all(traj.field.values == 0.0)
        assert traj.cfl_margins.shape == (line.n_steps,)
        assert np.all(traj.cfl_margins >= 0.0)

    def test_array_and_callable_data_agree(self, line):
        u0 = np.abs(line.centers()[..., 0])
        a = solve(line, QUADRATIC, u0)
        b = solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]))
        np.testing.assert_array_equal(a.field.values, b.field.values)

    def test_matches_variational_oracle_on_cone(self):
        spec = GridSpec(dimension=1, half_width=2.0, cells_per_axis=128,
                        t_start=0.0, t_end=1.0,
                        dt=snap_dt(0.0, 1.0, (4.0 / 128.0) / 6.0))
        traj = solve(spec, QUADRATIC, lambda x: np.linalg.norm(x, axis=-1))
        centers = spec.axis_centers()
        inner = np.abs(centers) <= 1.0
        exact = np.array([
            hopf_lax(lambda pts: np.linalg.norm(pts, axis=-1), 1.0, x, 2.0)
            for x in centers[inner]
        ])
        err = np.max(np.abs(traj.field.values[-1][inner] - exact))
        # Frozen from a resolution study: 0.0997 at this width, order ~0.8.
        assert err <= 0.11

    def test_stability_bound(self, box2, rng):
        u0 = make_initial_function(box2, "random-trig",
                                   {"amplitude": 0.3, "bandwidth": 2, "n_modes": 5},
                                   seed=11)(box2.centers())
        h = HamiltonianSpec(kind="power-law", p=1.5)
        spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=20,
                        t_start=0.0, t_end=1.0, dt=0.0025)
        traj = solve(spec, h, u0[: spec.cells_per_axis, : spec.cells_per_axis])
        span = spec.t_end - spec.t_start
        assert np.abs(traj.field.values).max() <= np.abs(u0).max() + span + 0.2

    def test_initial_shape_guard(self, line):
        with pytest.raises(ValueError, match="shape"):
            solve(line, QUADRATIC, np.zeros(7))

    def test_non_finite_initial_data(self, line):
        bad = np.zeros(line.spatial_shape)
        bad[0] = np.nan
        with pytest.raises(SolverError, match="non-finite"):
            solve(line, QUADRATIC, bad)

    def test_max_steps_cap(self, line):
        with pytest.raises(SolverError, match="max_steps"):
            solve(line, QUADRATIC, np.zeros(line.spatial_shape),
                  SolveConfig(max_steps=3))

    def test_adaptive_cfl_violation(self):
        spec = GridSpec(dimension=1, half_width=2.0, cells_per_axis=64,
                        t_start=0.0, t_end=0.5, dt=0.5 / 112.0)
        with pytest.raises(SolverError, match="CFL violation"):
            solve(spec, QUADRATIC, lambda x: 4.0 * np.linalg.norm(x, axis=-1))

    def test_monotonicity_breakdown_detected(self):
        spec = GridSpec(dimension=1, half_width=2.0, cells_per_axis=64,
                        t_start=0.0, t_end=0.5, dt=0.5 / 32.0)
        with pytest.raises(SolverError, match="monotonicity"):
            solve(spec, QUADRATIC, lambda x: 4.0 * np.linalg.norm(x, axis=-1))

    def test_fixed_sigma_needs_bound(self):
        with pytest.raises(ValueError, match="sigma_bound"):
            SolveConfig(sigma_mode="fixed")

    def test_fixed_sigma_abort_carries_step_index(self, line):
        cfg = SolveConfig(sigma_mode="fixed", sigma_bound=0.5)
        with pytest.raises(SolverError, match="fixed dissipation bound") as exc:
            solve(line, QUADRATIC, lambda x: 4.0 * np.abs(x[..., 0]), cfg)
        assert exc.value.step_index == 0


class TestWindowedSolve:
    """A solve that keeps some slices marches exactly as one that keeps all."""

    @pytest.fixture(scope="class")
    def full(self, line):
        return solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]) - 0.5)

    def test_kept_slices_equal_the_full_march(self, line, full):
        traj = solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]) - 0.5,
                     keep=[range(5, 8), range(30, 33), range(6, 7)])
        kept = [5, 6, 7, 30, 31, 32]
        assert traj.field.kept.tolist() == kept
        assert traj.field.values.tobytes() == full.field.values[kept].tobytes()
        assert traj.cfl_margins.tobytes() == full.cfl_margins.tobytes()
        assert traj.max_updates.tobytes() == full.max_updates.tobytes()

    @pytest.mark.parametrize("lo, hi", [(0, 1), (4, 6), (7, 9), (8, 30), (31, 34)])
    def test_a_slice_the_solve_did_not_keep_raises(self, line, lo, hi):
        traj = solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]),
                     keep=[range(5, 8), range(30, 33)])
        with pytest.raises(IndexError, match="not all kept"):
            traj.field.rows(lo, hi)

    def test_keeping_every_slice_is_the_full_field(self, line, full):
        traj = solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]) - 0.5,
                     keep=[range(0, 10), range(10, line.n_slices)])
        assert traj.field.kept is None
        assert traj.field.values.tobytes() == full.field.values.tobytes()

    def test_scan_sees_every_slice_in_order(self, line, full):
        seen = []
        traj = solve(line, QUADRATIC, lambda x: np.abs(x[..., 0]) - 0.5,
                     keep=[range(0, 2)], scan=lambda i, u: seen.append((i, u.copy())))
        assert [i for i, _ in seen] == list(range(line.n_slices))
        assert np.array_equal(np.stack([u for _, u in seen]), full.field.values)
        assert traj.field.values.shape == (2, *line.spatial_shape)


@st.composite
def ordered_data(draw):
    """A grid of at most 16^2 cells and 40 steps, a power law, and data
    ``lower <= upper`` on it, solved at a fixed dissipation twice the
    largest ``|dH/dP|`` the data's one-sided differences reach, with the
    time step at half the monotone limit."""
    dim = draw(st.integers(1, 2))
    cells = draw(st.integers(4, 16))
    steps = draw(st.integers(1, 40))
    h = HamiltonianSpec(kind="power-law", p=draw(st.floats(1.1, 2.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (cells,) * dim
    lower = rng.uniform(-1.0, 1.0, shape)
    upper = lower + np.maximum(rng.uniform(-0.5, 1.0, shape), 0.0)
    width = 2.0 / cells
    slope = max(float(np.abs(np.diff(u, axis=a)).max())
                for u in (lower, upper) for a in range(dim)) / width
    sigma = 2.0 * max(h.dissipation_bound(math.sqrt(dim) * slope), 1.0)
    dt = 0.5 * width / (dim * sigma)
    spec = GridSpec(dimension=dim, half_width=1.0, cells_per_axis=cells,
                    t_start=0.0, t_end=steps * dt, dt=dt)
    return spec, h, SolveConfig(sigma_mode="fixed", sigma_bound=sigma), lower, upper


def rounding_slack(spec, *data):
    """Per-slice bound on the rounding a solve adds: each step rounds by a
    few ulps of the data's scale (the scheme keeps values inside the data's
    range), and a monotone step does not amplify earlier errors, so slice
    ``i`` is off by at most ``8 i eps (1 + sup |data|)``."""
    scale = 1.0 + max(float(np.abs(d).max()) for d in data)
    steps = np.arange(spec.n_slices).reshape(-1, *[1] * spec.dimension)
    return 8.0 * steps * np.finfo(float).eps * scale


class TestDiscreteComparison:
    @settings(max_examples=100, deadline=None)
    @given(problem=ordered_data())
    def test_ordered_data_stay_ordered_slice_by_slice(self, problem):
        spec, h, cfg, lower, upper = problem
        a = solve(spec, h, lower, cfg).field.values
        b = solve(spec, h, upper, cfg).field.values
        assert np.all(a <= b + rounding_slack(spec, lower, upper))

    @settings(max_examples=100, deadline=None)
    @given(problem=ordered_data(), c=st.floats(-4.0, 4.0))
    def test_adding_a_constant_shifts_every_slice(self, problem, c):
        spec, h, cfg, u0, _ = problem
        base = solve(spec, h, u0, cfg).field.values
        shifted = solve(spec, h, u0 + c, cfg).field.values
        # plus the rounding of ``base + c`` itself
        slack = rounding_slack(spec, u0, u0 + c) + 2.0 * np.finfo(float).eps * abs(c)
        assert np.all(np.abs(shifted - (base + c)) <= slack)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ordered_data_stays_ordered(self, seed):
        spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=16,
                        t_start=0.0, t_end=0.25, dt=0.003125)
        h = HamiltonianSpec(kind="power-law", p=1.5)
        rng = np.random.default_rng(seed)
        lower = make_initial_function(
            spec, "random-trig",
            {"amplitude": 0.2, "bandwidth": 2, "n_modes": 4}, seed=seed)(spec.centers())
        bump = 0.1 * (1.0 + np.cos(np.pi * rng.uniform(0, 1)
                                   * spec.centers()[..., 0]))
        cfg = SolveConfig(sigma_mode="fixed", sigma_bound=8.0)
        a = solve(spec, h, lower, cfg)
        b = solve(spec, h, lower + bump, cfg)
        gap = b.field.values - a.field.values
        assert gap.min() >= -1e-12


class TestHopfLax:
    @staticmethod
    def cone(pts):
        return np.linalg.norm(pts, axis=-1)

    def test_cone_value_at_unit_point(self):
        assert hopf_lax(self.cone, 1.0, 1.0, 2.0) == pytest.approx(0.25, abs=1e-6)

    def test_cone_value_in_linear_regime(self):
        assert hopf_lax(self.cone, 1.0, 3.0, 2.0) == pytest.approx(2.0, abs=1e-6)

    def test_constant_data_is_invariant(self):
        value = hopf_lax(lambda pts: np.full(pts.shape[0], 1.25), 0.7,
                         np.array([0.3, -0.2]), 1.5)
        assert value == pytest.approx(1.25, abs=1e-9)

    def test_zero_time_returns_initial_value(self):
        assert hopf_lax(self.cone, 0.0, 2.5, 2.0) == 2.5

    def test_guards(self):
        with pytest.raises(ValueError, match="exceed 1"):
            hopf_lax(self.cone, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            hopf_lax(self.cone, -1.0, 0.0, 2.0)

    def test_two_wells_reach_the_dense_minimum(self):
        """Non-convex data whose local search alone settles in the wrong
        basin at some points: every value must reach the minimum over 2.4
        million candidates in [-6, 6]."""
        def u0(pts):
            y = pts[..., 0]
            return (np.minimum(3 * (y - 1) ** 2, 3 * (y + 1.2) ** 2 - 0.3)
                    + 0.2 * np.cos(9 * y))

        xs = np.linspace(-2.0, 2.0, 81)
        ys = np.linspace(-6.0, 6.0, 2_400_001)
        u_ys = u0(ys[:, None])
        for t in (0.05, 0.3, 1.0, 3.0):
            got = hopf_lax(u0, t, xs[:, None], 2.0)
            dense = np.array([(u_ys + (x - ys) ** 2 / (4.0 * t)).min()
                              for x in xs])
            assert np.all(got <= dense + 1e-6), t

    def test_guards_on_a_batch(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="exceed 1"):
            hopf_lax(self.cone, 1.0, pts, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            hopf_lax(self.cone, -1.0, pts, 2.0)
        with pytest.raises(ValueError, match=r"\(M, N\)"):
            hopf_lax(self.cone, 1.0, np.zeros((2, 3, 1)), 2.0)

    def test_batch_returns_one_value_per_point(self):
        pts = np.array([[1.0], [3.0], [-1.0]])
        values = hopf_lax(self.cone, 1.0, pts, 2.0)
        assert values.shape == (3,)
        np.testing.assert_allclose(values, [0.25, 2.0, 0.25], atol=1e-6)
        assert hopf_lax(self.cone, 1.0, np.empty((0, 2)), 2.0).shape == (0,)


# Initial data drawn for the oracle property below: the cone and a sine
# product map each row on its own; random-trig forms ``x @ k``, which BLAS
# rounds differently for a lone row than for a block of rows in 2-D and 3-D.
_ORACLE_DATA = {
    "cone": {"amplitude": 1.0},
    "sine-product": {"amplitude": 0.4, "frequency": 2.0},
    "random-trig": {"amplitude": 0.5, "bandwidth": 3, "n_modes": 5},
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2, 3]),
       name=st.sampled_from(sorted(_ORACLE_DATA)),
       t=st.one_of(st.just(0.0), st.floats(0.02, 3.0)),
       p=st.floats(1.2, 3.0), block=st.one_of(st.none(), st.integers(1, 2000)))
def test_batched_oracle_equals_one_point_calls(data, dim, name, t, p, block):
    """Every batched value has the bytes of its one-point call, whether the
    points go through in one chunk or in several (``block`` shrinks the
    chunks, so a few points span several).  At t = 0 each call returns u0
    on the array it was given, which for random-trig data in 2-D and 3-D
    is the one case where a batch and its rows can differ."""
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=8,
                    t_start=0.0, t_end=1.0, dt=0.1)
    u0 = make_initial_function(spec, name, _ORACLE_DATA[name],
                               seed=data.draw(st.integers(0, 2**16)))
    m = data.draw(st.integers(1, 6 if dim == 3 else 16))
    seed = data.draw(st.integers(0, 2**32 - 1))
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, (m, dim))
    scalar = dim == 1 and data.draw(st.booleans())
    with mock.patch.object(hjreg.solver, "_BLOCK_CELLS",
                           block or hjreg.solver._BLOCK_CELLS):
        batched = hopf_lax(u0, t, pts, p)
        single = np.array([hopf_lax(u0, t, float(x[0]) if scalar else x, p)
                           for x in pts])
    assert batched.shape == (m,)
    if t == 0.0:
        # at t = 0 the values are u0 itself, on the array each call was given
        assert batched.tobytes() == np.asarray(u0(pts), dtype=float).tobytes()
        assert single.tobytes() == np.concatenate(
            [u0(x[None, :]) for x in pts]).tobytes()
        if name == "random-trig" and dim > 1:
            return
    assert batched.tobytes() == single.tobytes()


def test_batched_oracle_spans_chunks_at_the_block_size():
    """Enough 3-D points for two chunks of ``grid._BLOCK_CELLS`` candidates;
    the points at both ends and on either side of the chunk boundary are
    checked against one-point calls."""
    spec = GridSpec(dimension=3, half_width=1.5, cells_per_axis=8,
                    t_start=0.0, t_end=1.0, dt=0.1)
    u0 = make_initial_function(spec, "random-trig", _ORACLE_DATA["random-trig"],
                               seed=4)
    per_chunk = hjreg.solver._BLOCK_CELLS // (1 + 7**3)
    pts = np.random.default_rng(9).uniform(-1.5, 1.5, (per_chunk + 9, 3))
    batched = hopf_lax(u0, 0.4, pts, 1.5)
    picked = [0, 1, 2, per_chunk - 3, per_chunk - 2, per_chunk - 1,
              per_chunk, per_chunk + 1, per_chunk + 2, per_chunk + 8]
    single = np.array([hopf_lax(u0, 0.4, pts[i], 1.5) for i in picked])
    assert batched[picked].tobytes() == single.tobytes()


class TestResiduals:
    """Each report's table against the whole-field residual of the same
    inequality, with ``==``."""

    def test_report_has_one_fewer_entry_than_slices(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = const_field(line, 0.0)
        report = residual_subsolution(f, env)
        assert report.values.shape == (line.n_slices - 1, 3)
        full = reference.residual(f, 2.0, 1.0, 1.0)
        assert full.shape == (line.n_slices - 1, *line.spatial_shape)
        assert np.array_equal(report.values, reference.table(full))

    def test_solved_field_has_small_subsolution_residual(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = make_field(line, lambda t, x: 0.1 * np.sin(2.0 * x[..., 0]))
        traj = solve(line, QUADRATIC, f.values[0])
        report = residual_subsolution(traj.field, env, a_coef=1.0, b_const=0.0)
        full = reference.residual(traj.field, 2.0, 1.0, 0.0)
        assert np.array_equal(report.values, reference.table(full))
        tol = 10.0 * (line.cell_width + line.dt)
        assert report.max_positive <= tol

    def test_linear_drift_is_exactly_critical(self, box2):
        env = CoercivityEnvelope(lam=2.0, p=1.5)
        f = make_field(box2, lambda t, x: env.lam * t)
        report = residual_subsolution(f, env)
        full = reference.residual(f, 1.5, 1.0 / env.lam, env.lam)
        assert np.array_equal(report.values, reference.table(full))
        assert np.abs(full).max() <= 1e-10

    def test_gauge_shifted_solution_is_supersolution(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        traj = solve(line, QUADRATIC,
                     lambda x: 0.1 * np.sin(2.0 * x[..., 0]))
        lifted = gauge_shift(traj.field, env)
        report = residual_supersolution(lifted, env)
        full = reference.residual(lifted, 2.0, env.lam, 0.0)
        assert np.array_equal(report.values, reference.table(full))
        assert report.min_value >= -10.0 * (line.cell_width + line.dt)

    def test_time_ramp_supersolution_margin(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        report = residual_supersolution(time_field(box2), env)
        full = reference.residual(time_field(box2), 1.5, env.lam, 0.0)
        assert np.array_equal(report.values, reference.table(full))
        assert report.min_value == pytest.approx(1.0, abs=1e-9)

    def test_constant_field_residual_vanishes(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        f = const_field(box2, -3.0)
        report = residual_supersolution(f, env)
        full = reference.residual(f, 1.5, env.lam, 0.0)
        assert np.array_equal(report.values, reference.table(full))
        assert np.abs(full).max() == 0.0

    def test_a_stopping_term_ends_its_rows_after_its_block(self, box2):
        """A term with ``stop_below`` is taken up to the end of the first
        block with a row below it, beside terms taken whole; a reflected
        term cannot stop."""
        f = time_field(box2)  # every row's min is du/dt = 1
        terms = [ResidualTerm(1.0, stop_below=1.5), ResidualTerm(1.0),
                 ResidualTerm(1.0, stop_below=0.5)]
        rows = ResidualRows(box2, 1.5, terms)
        with mock.patch("hjreg.grid._BLOCK_CELLS", 10 * 20**2):
            SliceScan(box2, [rows]).read(f)
        stopped, whole, never = rows.reports()
        assert stopped.values.tobytes() == whole.values[:10].tobytes()
        assert never.values.tobytes() == whole.values.tobytes()
        assert len(whole.values) == box2.n_steps
        with pytest.raises(ValueError, match="reflected term cannot stop early"):
            ResidualRows(box2, 1.5, [ResidualTerm(1.0, reflected=True, stop_below=0.0)])

    def test_custom_coefficients(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = coordinate_field(line)
        report = residual_subsolution(f, env, a_coef=2.0, b_const=0.5)
        full = reference.residual(f, 2.0, 2.0, 0.5)
        assert np.array_equal(report.values, reference.table(full))
        interior = full[:, 2:-2]
        np.testing.assert_allclose(interior, 1.5, rtol=1e-12)


# Cells per axis of the one-block and the several-block draws.
_ONE_BLOCK_CELLS = {1: (8, 64), 2: (6, 24), 3: (4, 12)}
_MANY_BLOCK_CELLS = {1: (400, 600), 2: (40, 64), 3: (16, 24)}


@st.composite
def reflectable_fields(draw):
    """A smooth field with a flat cap on ``[-T, T] x [-1.5, 1.5]^N``, N in
    1..3, spanning one block of ``grid._BLOCK_CELLS`` cells or several."""
    dim = draw(st.sampled_from([1, 2, 3]))
    several_blocks = draw(st.booleans())
    cells = draw(st.integers(
        *(_MANY_BLOCK_CELLS if several_blocks else _ONE_BLOCK_CELLS)[dim]))
    per_block = max(1, hjreg.solver._BLOCK_CELLS // cells**dim)
    if several_blocks:
        n_steps = draw(st.integers(per_block + 1, 3 * per_block))
    else:
        n_steps = draw(st.integers(1, min(40, per_block - 1)))
    half = draw(st.floats(0.5, 2.0))
    spec = GridSpec(dimension=dim, half_width=1.5, cells_per_axis=cells,
                    t_start=-half, t_end=half, dt=2.0 * half / n_steps)
    k = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)))
    speed, drift, cap = (draw(st.floats(-2.0, 2.0)) for _ in range(3))
    return make_field(spec, lambda t, x: np.minimum(
        np.sin(x @ k + speed * t) + drift * t, cap))


residual_terms = st.builds(ResidualTerm, st.floats(0.1, 4.0),
                           st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
                           st.booleans(), stop_below=st.none())


@settings(max_examples=40, deadline=None)
@given(f=reflectable_fields(), p=st.floats(1.1, 2.5),
       drawn=st.lists(residual_terms, min_size=1, max_size=5), with_ball=st.booleans())
def test_one_pass_equals_one_call_per_term(f, p, drawn, with_ball):
    """Every term of a pass has the bytes of its own call; a reflected
    term those of the residual of the reflection ``-f(-t, x)``."""
    env = CoercivityEnvelope(lam=1.0, p=p)
    ball = (np.linalg.norm(f.spec.centers(), axis=-1) < 1.0) if with_ball else None
    reports = residual_reports(f, env, drawn, ball)
    assert list(reports) == list(dict.fromkeys(drawn))
    for term, report in reports.items():
        source = reference.reflect(f) if term.reflected else f
        alone = residual_subsolution(source, env, term.a, term.b, ball=ball)
        assert report.values.tobytes() == alone.values.tobytes()
        assert (report.max_positive, report.min_value, report.ball_max) == (
            alone.max_positive, alone.min_value, alone.ball_max)


def test_traced_residuals_count_their_table_rows(line):
    """The benchmark's tracer counts ``solver.residual.slices`` from
    ``ResidualReport.values``: one per table row, one row per time step,
    a reflected residual's too."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("traced_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    import hjreg.cli  # noqa: F401  (loads every module the tracer rebinds)

    modules = [m for n, m in sys.modules.items()
               if n == "hjreg" or n.startswith("hjreg.")]
    saved = {m: dict(vars(m)) for m in modules}
    methods = []
    for module, target in spans.TARGETS:
        if "." in target:
            cls, attr = target.split(".")
            owner = getattr(sys.modules[f"hjreg.{module}"], cls)
            methods.append((owner, attr, owner.__dict__[attr]))
    env = CoercivityEnvelope(lam=1.0, p=2.0)
    f = coordinate_field(line)
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        sub = hjreg.solver.residual_subsolution(f, env)
        sup = hjreg.solver.residual_supersolution(f, env)
        mirrored = hjreg.solver.residual_subsolution(f, env, 1.0, 0.5, reflected=True)
    finally:
        for module, attrs in saved.items():
            vars(module).update(attrs)
        for owner, attr, original in methods:
            setattr(owner, attr, original)
    assert sub.values.shape[0] == sup.values.shape[0] == line.n_steps
    assert mirrored.values.shape[0] == line.n_steps
    summary = spans.summarize(tracer)
    assert summary["solver.residual.slices"] == 3 * line.n_steps
    assert summary["solver.residual_subsolution.calls"] == 2
    assert summary["solver.residual_supersolution.calls"] == 1
    assert hjreg.solver.residual_subsolution is residual_subsolution


def test_readme_library_example_runs():
    """README's python block, run as written against the package root."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    assert namespace["final"].shape == namespace["spec"].spatial_shape
    assert math.isfinite(namespace["error"])
