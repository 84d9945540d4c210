"""Monotone marching scheme, variational oracle, and residual checks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjreg.solver
from hjreg.grid import GridSpec, make_field
from hjreg.hamiltonians import (
    CoercivityEnvelope,
    HamiltonianSpec,
    TransformedHamiltonian,
    gauge_shift,
)
from hjreg.initial_data import make_initial_data, make_initial_function
from hjreg.solver import (
    SolveConfig,
    SolverError,
    cfl_dt,
    hopf_lax,
    residual_subsolution,
    residual_supersolution,
    snap_dt,
    solve,
    step,
)

from conftest import const_field, coordinate_field, time_field

QUADRATIC = HamiltonianSpec(kind="power-law", p=2.0)


@pytest.fixture(scope="module")
def line():
    """1-D lattice [-2, 2] with h = 1/8 and a comfortably CFL-safe dt."""
    return GridSpec(dimension=1, half_width=2.0, cells_per_axis=32,
                    t_start=0.0, t_end=0.5, dt=0.015625)


class TestStepPlanning:
    def test_cfl_dt_worked_example(self):
        spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=20,
                        t_start=0.0, t_end=1.0, dt=0.01)
        assert cfl_dt(spec, sigma=2.0, safety=0.5) == pytest.approx(0.0125, rel=1e-12)

    def test_cfl_dt_inverse_in_sigma(self):
        spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=20,
                        t_start=0.0, t_end=1.0, dt=0.01)
        assert cfl_dt(spec, 4.0, 0.5) == pytest.approx(
            0.5 * cfl_dt(spec, 2.0, 0.5), rel=1e-12
        )

    def test_cfl_dt_unit_case(self):
        spec = GridSpec(dimension=1, half_width=2.0, cells_per_axis=4,
                        t_start=0.0, t_end=1.0, dt=0.5)
        assert cfl_dt(spec, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_cfl_dt_guards(self):
        spec = GridSpec(dimension=1, half_width=1.0, cells_per_axis=4,
                        t_start=0.0, t_end=1.0, dt=0.5)
        with pytest.raises(ValueError):
            cfl_dt(spec, 0.0, 0.5)
        with pytest.raises(ValueError):
            cfl_dt(spec, 1.0, 1.5)

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
        out = step(f, QUADRATIC, 0, SolveConfig())
        np.testing.assert_array_equal(out, f.values[0])

    def test_offset_hamiltonian_drifts_constant_data(self, line):
        h = HamiltonianSpec(kind="scaled-power-law", p=2.0, coefficient=1.0,
                            offset=-2.0)
        f = const_field(line, 0.0)
        out = step(f, h, 0, SolveConfig())
        np.testing.assert_allclose(out, 2.0 * line.dt, rtol=1e-12)

    def test_cone_recedes_at_unit_rate_off_the_kink(self, line):
        f = make_field(line, lambda t, x: np.abs(x[..., 0]))
        out = step(f, QUADRATIC, 0, SolveConfig())
        centers = line.axis_centers()
        smooth = np.abs(centers) > 2 * line.cell_width
        smooth[:2] = smooth[-2:] = False
        np.testing.assert_allclose(
            out[smooth], np.abs(centers)[smooth] - line.dt, rtol=1e-12
        )

    def test_gauge_invariance_of_update(self, line):
        f = make_field(line, lambda t, x: 0.2 * np.sin(2.0 * x[..., 0]))
        shifted_h = TransformedHamiltonian(base=QUADRATIC, const=-1.0)
        plain = step(f, QUADRATIC, 0, SolveConfig())
        shifted = step(f, shifted_h, 0, SolveConfig())
        np.testing.assert_allclose(shifted, plain + line.dt, rtol=0, atol=1e-14)

    def test_index_range_guard(self, line):
        f = const_field(line, 0.0)
        with pytest.raises(ValueError, match="out of range"):
            step(f, QUADRATIC, line.n_slices - 1, SolveConfig())


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
        u0 = make_initial_data(box2, "random-trig",
                               {"amplitude": 0.3, "bandwidth": 2, "n_modes": 5},
                               seed=11)
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


class TestDiscreteComparison:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ordered_data_stays_ordered(self, seed):
        spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=16,
                        t_start=0.0, t_end=0.25, dt=0.003125)
        h = HamiltonianSpec(kind="power-law", p=1.5)
        rng = np.random.default_rng(seed)
        lower = make_initial_data(
            spec, "random-trig",
            {"amplitude": 0.2, "bandwidth": 2, "n_modes": 4}, seed=seed)
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
    def test_report_has_one_fewer_entry_than_slices(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = const_field(line, 0.0)
        report = residual_subsolution(f, env)
        assert report.values.shape == (line.n_slices - 1, *line.spatial_shape)

    def test_solved_field_has_small_subsolution_residual(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = make_field(line, lambda t, x: 0.1 * np.sin(2.0 * x[..., 0]))
        traj = solve(line, QUADRATIC, f.values[0])
        report = residual_subsolution(traj.field, env, a_coef=1.0, b_const=0.0)
        tol = 10.0 * (line.cell_width + line.dt)
        assert report.max_positive <= tol

    def test_linear_drift_is_exactly_critical(self, box2):
        env = CoercivityEnvelope(lam=2.0, p=1.5)
        f = make_field(box2, lambda t, x: env.lam * t)
        report = residual_subsolution(f, env)
        assert np.abs(report.values).max() <= 1e-10

    def test_gauge_shifted_solution_is_supersolution(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        traj = solve(line, QUADRATIC,
                     lambda x: 0.1 * np.sin(2.0 * x[..., 0]))
        lifted = gauge_shift(traj.field, env)
        report = residual_supersolution(lifted, env)
        assert report.min_value >= -10.0 * (line.cell_width + line.dt)

    def test_time_ramp_supersolution_margin(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        report = residual_supersolution(time_field(box2), env)
        assert report.min_value == pytest.approx(1.0, abs=1e-9)

    def test_constant_field_residual_vanishes(self, box2):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        report = residual_supersolution(const_field(box2, -3.0), env)
        assert np.abs(report.values).max() == 0.0

    def test_custom_coefficients(self, line):
        env = CoercivityEnvelope(lam=1.0, p=2.0)
        f = coordinate_field(line)
        report = residual_subsolution(f, env, a_coef=2.0, b_const=0.5)
        interior = report.values[:, 2:-2]
        np.testing.assert_allclose(interior, 1.5, rtol=1e-12)
