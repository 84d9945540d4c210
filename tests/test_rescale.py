"""Zoom cascade: resampling, recentering, zooms, and the regularity scan."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjreg import experiment, rescale
from hjreg.experiment import ExperimentConfig, TheoremSettings
from hjreg.grid import (
    _BLOCK_CELLS,
    GridSpec,
    ScalarField,
    SliceTables,
    Window,
    field_from_values,
    one_cell_oscillation,
)
from hjreg.hamiltonians import (
    GaugedField,
    HamiltonianSpec,
    TransformedHamiltonian,
)
from hjreg.oscillation import build_constant_chain, growth_envelope
from hjreg.rescale import (
    ZOOM_WINDOW,
    OscillationRecord,
    base_point_slices,
    base_point_window,
    cascade_status,
    gauge_to_window,
    holder_estimate,
    records_to_csv,
    resample,
    select_recenter,
    theorem_check,
    zoom_cascade,
)
from hjreg.solver import SolveConfig, SolverError, solve

import reference
from conftest import bundled_config, const_field, coordinate_field, gauge_scan, noise_field
from reference import gauge_shift, make_field, sample

POWER_LAW = HamiltonianSpec(kind="power-law", p=1.5)


def complete_cascade(*args, **kwargs):
    """``zoom_cascade``'s records, after checking that no level aborted."""
    records, aborted = zoom_cascade(*args, **kwargs)
    assert aborted is None
    return records


@pytest.fixture(scope="module")
def window():
    """Cascade-shaped grid: [-4, 0] x box(1.25)."""
    return GridSpec(dimension=2, half_width=1.25, cells_per_axis=24,
                    t_start=-4.0, t_end=0.0, dt=0.125)


class TestResample:
    def test_identity(self, window, rng):
        f = noise_field(window, rng)
        out = resample(f, window)
        np.testing.assert_allclose(out.values, f.values, rtol=0, atol=1e-12)

    def test_linear_map_is_exact(self, window):
        f = coordinate_field(window)
        out = resample(f, window, space_scale=0.5)
        expected = 0.5 * window.centers()[..., 0]
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-12, atol=1e-15)

    def test_reads_outside_the_hull_clamp_to_the_edge(self, window):
        f = coordinate_field(window)
        out = resample(f, window, space_scale=2.0)
        edge = window.half_width - window.cell_width / 2.0
        expected = np.clip(2.0 * window.centers()[..., 0], -edge, edge)
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-12, atol=1e-15)


def signed_field(rng, dimension):
    """Noise on a random grid, with about a fifth of its values ``-0.0``."""
    spec = GridSpec(dimension=dimension, half_width=float(rng.uniform(0.5, 2.0)),
                    cells_per_axis=int(rng.integers(4, 7)), t_start=-1.0,
                    t_end=1.0, dt=float(rng.choice([0.25, 0.5])))
    values = rng.standard_normal((spec.n_slices, *spec.spatial_shape))
    values[rng.random(values.shape) < 0.2] = -0.0
    return field_from_values(spec, values)


def edge_queries(rng, grid, inside):
    """``inside`` uniform draws in the hull, two nodes, both hull ends and
    one point past each end."""
    lo, hi = grid[0], grid[-1]
    past = [lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo)]
    return np.concatenate([rng.uniform(lo, hi, inside), rng.choice(grid, 2),
                           [lo, hi], past])


def tensor_points(axes):
    """Every point of the tensor grid ``axes`` as ``(t, *x)`` rows, in C order."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class TestSampler:
    """The tensor-product sampler against the per-point oracle, by ``==``."""

    @pytest.mark.parametrize("rate", [0.0, 1.75])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_tensor_grid_matches_the_oracle(self, rng, dimension, rate):
        f = signed_field(rng, dimension)
        grids = [f.spec.times()] + [f.spec.axis_centers()] * dimension
        axes = [edge_queries(rng, g, 4 - dimension) for g in grids]
        got = rescale._clamped_sample(GaugedField(f, rate), axes)
        assert got.shape == tuple(len(q) for q in axes)
        assert np.array_equal(got.ravel(), sample(f, tensor_points(axes), rate))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_single_time_query_matches_the_oracle(self, rng, dimension):
        # the zoom re-solve's shape: one pulled-back time, scaled centers
        f = signed_field(rng, dimension)
        t = float(rng.uniform(f.spec.t_start, f.spec.t_end))
        axes = [np.array([t])] + [1.5 * f.spec.axis_centers()] * dimension
        got = rescale._clamped_sample(f, axes)
        assert np.array_equal(got.ravel(), sample(f, tensor_points(axes)))

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_resample_matches_the_oracle(self, rng, dimension):
        f = signed_field(rng, dimension)
        target = GridSpec(dimension=dimension, half_width=1.0, cells_per_axis=4,
                          t_start=-0.5, t_end=0.5, dt=0.25)
        shift = tuple(float(c) for c in rng.uniform(-0.5, 0.5, dimension))
        out = resample(GaugedField(f, -0.5), target, time_scale=1.5,
                       time_shift=-0.2, space_scale=1.3, space_shift=shift,
                       value_scale=0.75)
        times = -0.2 + 1.5 * target.times()
        cells = (np.asarray(shift) + 1.3 * target.centers()).reshape(-1, dimension)
        points = np.array([(t, *x) for t in times for x in cells])
        expected = 0.75 * sample(f, points, -0.5)
        assert np.array_equal(out.values.ravel(), expected)

    def test_node_aligned_maps_are_exact(self, rng):
        # centers are odd eighths and times whole eighths, so t -> 2t and
        # x -> 3x + shift land on nodes, or past the hull and clamp to one
        spec = GridSpec(dimension=2, half_width=1.0, cells_per_axis=8,
                        t_start=-4.0, t_end=0.0, dt=0.125)
        f = noise_field(spec, rng)
        out = resample(f, spec, time_scale=2.0, space_scale=3.0,
                       space_shift=(0.25, -0.5))

        def nodes(queries, grid):
            q = np.clip(queries, grid[0], grid[-1])
            idx = np.searchsorted(grid, q)
            assert np.array_equal(grid[idx], q)
            return idx

        centers = spec.axis_centers()
        rows = nodes(2.0 * spec.times(), spec.times())
        xs = nodes(0.25 + 3.0 * centers, centers)
        ys = nodes(-0.5 + 3.0 * centers, centers)
        assert np.array_equal(out.values, f.values[np.ix_(rows, xs, ys)])


def level_tables(f, chain):
    """The tables a cascade level reads of ``f``, as level 0 takes them."""
    return SliceTables.of(f, rescale._level_reads(chain))


def recenter(f, chain):
    """``select_recenter`` of ``f``'s extrema over the zoom window, at its
    one-cell oscillation there, as the cascade calls it."""
    win, tables = Window(f.spec, ZOOM_WINDOW), level_tables(f, chain)
    return select_recenter(tables.min(win), tables.max(win), chain, tables.one_cell(win))


class TestSelectRecenter:
    def test_zero_field(self, window, chain_unit):
        d, achieved = recenter(const_field(window, 0.0), chain_unit)
        assert d == 0.0
        assert achieved == 0.0

    def test_clamps_to_half_shrink(self, window, chain_unit):
        lam_tilde = chain_unit.shrink_below
        d_low, _ = recenter(const_field(window, -lam_tilde), chain_unit)
        d_high, _ = recenter(const_field(window, lam_tilde), chain_unit)
        assert d_low == -lam_tilde / 2.0
        assert d_high == lam_tilde / 2.0

    def test_achieved_sup_reports_residual_range(self, window, chain_unit):
        f = const_field(window, 0.25)
        d, achieved = recenter(f, chain_unit)
        assert achieved == pytest.approx(0.25 - d, rel=1e-12)


def zoom_start(f, d, chain):
    """The first slice of the next level, ``s (f(-4 a, b x) - d)``, as the
    re-solve hands it to ``solve``."""
    starts, real_solve = [], rescale.solve

    def spy(spec, h, u0, *args):
        starts.append(u0)
        return real_solve(spec, h, u0, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rescale, "solve", spy)
        rescale._zoom_resolve(f, level_tables(f, chain), d, chain, POWER_LAW,
                              SolveConfig())
    [start] = starts
    return start


class TestZoomStep:
    def test_recentering_constant_zeroes_out(self, window, chain_unit):
        d = chain_unit.shrink_below / 4.0
        start = zoom_start(const_field(window, d), d, chain_unit)
        np.testing.assert_allclose(start, 0.0, rtol=0, atol=1e-18)

    def test_ceiling_is_a_fixed_point_after_recentering(self, window, chain_unit):
        f = const_field(window, 2.0)
        d, _ = recenter(f, chain_unit)
        start = zoom_start(f, d, chain_unit)
        np.testing.assert_allclose(start, 2.0, rtol=8e-16)

    def test_linear_profile_maps_linearly(self, window, chain_unit):
        beta = 0.5
        f = make_field(window, lambda t, x: beta * x[..., 0])
        start = zoom_start(f, 0.0, chain_unit)
        scale = 4.0 / (4.0 - chain_unit.shrink_below)
        expected = scale * beta * chain_unit.zoom_ratio * window.centers()[..., 0]
        np.testing.assert_allclose(start, expected, rtol=1e-12)

    def test_growth_envelope_is_enforced(self, window, chain_unit, monkeypatch):
        with pytest.raises(ValueError,
                           match=r"field exceeds its growth envelope by 1\.0 "):
            zoom_start(const_field(window, 3.0), 0.0, chain_unit)

        # a level-1 field that is 0 on the recentering window [-1, 0] but
        # reaches 3 at t = -4, one eighth per slice; the stub marches it
        # into the scan it is given, on the step the stub forces
        escaped = make_field(window, lambda t, x: np.clip(-1.0 - t, 0.0, 3.0))

        def escaped_solve(spec, h, u0, cfg, keep, scan):
            assert spec == window
            for i, row in enumerate(escaped.values):
                scan(i, row)
            return SimpleNamespace(field=escaped)

        monkeypatch.setattr(rescale, "snap_dt", lambda *args: window.dt)
        monkeypatch.setattr(rescale, "solve", escaped_solve)
        records, aborted = zoom_cascade(
            const_field(window, 0.0), chain_unit, 2, POWER_LAW)
        assert aborted.startswith(
            "cascade aborted at level 1: field exceeds its growth envelope by 1.0 ")
        assert [r.level for r in records] == [0, 1]


def smooth_field(spec):
    return make_field(spec, lambda t, x: 0.5 * np.cos(np.pi * x[..., 0] / 2.5)
                      * np.cos(np.pi * x[..., 1] / 2.5) + 0.05 * t)


def whole_resolves(monkeypatch):
    """Every re-solve's whole field, from a second solve that keeps every
    slice, in call order."""
    wholes, real_solve = [], rescale.solve

    def spy(spec, h, u0, cfg, keep, scan):
        wholes.append(real_solve(spec, h, u0, cfg).field)
        return real_solve(spec, h, u0, cfg, keep, scan)

    monkeypatch.setattr(rescale, "solve", spy)
    return wholes


class TestLevelReads:
    def test_tables_equal_the_whole_field_reads(self, window, chain_unit, monkeypatch):
        """Level 0's tables and a re-solved level's, which its march fed,
        give the whole-field reads bit for bit; the re-solve keeps only the
        slices the next level samples."""
        wholes = whole_resolves(monkeypatch)
        f = smooth_field(window)
        tables = level_tables(f, chain_unit)
        d, _ = recenter(f, chain_unit)
        out, out_tables, _ = rescale._zoom_resolve(
            f, tables, d, chain_unit, POWER_LAW, SolveConfig())
        [whole] = wholes
        assert out.kept is not None and len(out.kept) <= 6 < whole.spec.n_slices
        assert np.array_equal(out.values, whole.values[out.kept])
        env = (growth_envelope, chain_unit)
        for field, t in ((f, tables), (whole, out_tables)):
            win = Window(field.spec, ZOOM_WINDOW)
            assert t.max(win) == reference.window_max(field, win)
            assert t.min(win) == reference.window_min(field, win)
            assert t.one_cell(win) == reference.one_cell_oscillation(field, win)
            assert t.one_cell() == reference.one_cell_oscillation(field)
            assert max(t.table("max", None).max(),
                       -t.table("min", None).min()) == reference.sup_abs(field)
            margin = np.minimum(t.table("plus_min", None, env),
                                t.table("plus_min", None, env, negated=True))
            assert margin.min() == reference.envelope_margin(field, chain_unit)

    def test_records_equal_the_whole_field_path(self, window, chain_unit, monkeypatch):
        wholes = whole_resolves(monkeypatch)
        f = smooth_field(window)
        records = complete_cascade(f, chain_unit, 2, POWER_LAW)
        assert len(wholes) == 2
        for m, (field, r) in enumerate(zip([f, *wholes], records)):
            win, factor = Window(field.spec, ZOOM_WINDOW), chain_unit.decay_ratio**m
            lo, hi = reference.window_min(field, win), reference.window_max(field, win)
            assert r.osc_measured == factor * (hi - lo)
            assert r.tolerance == factor * reference.one_cell_oscillation(field, win)


class TestZoomCascade:
    def test_zero_field_satisfies_every_level(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 3, POWER_LAW)
        assert len(records) == 4
        theta = chain_unit.decay_ratio
        for m, r in enumerate(records):
            assert r.level == m
            assert r.osc_measured == 0.0
            assert r.osc_bound == pytest.approx(4.0 * theta ** (m + 1), rel=1e-12)
            assert r.satisfied
            assert r.recenter == 0.0

    def test_resolves_evaluate_one_flat_transform_per_step(
        self, window, chain_unit, monkeypatch
    ):
        """Every re-solve step makes one ``TransformedHamiltonian.eval``
        call, inside no other ``eval``, and the catalog base is never
        evaluated on its own: each level's transform composes with the ones
        before it.  The benchmark's cascade workload counts these calls."""
        counts = {"transformed": 0, "spec": 0, "nested": 0, "steps": 0}
        depth = [0]

        def spy(cls, key):
            original = cls.__dict__["eval"]

            def counted(self, *args, **kwargs):
                counts[key] += 1
                counts["nested"] += depth[0] > 0
                depth[0] += 1
                try:
                    return original(self, *args, **kwargs)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(cls, "eval", counted)

        spy(HamiltonianSpec, "spec")
        spy(TransformedHamiltonian, "transformed")
        real_solve = rescale.solve

        def counted_solve(spec, h, *args, **kwargs):
            assert isinstance(h.base, HamiltonianSpec)
            traj = real_solve(spec, h, *args, **kwargs)
            counts["steps"] += spec.n_steps
            return traj

        monkeypatch.setattr(rescale, "solve", counted_solve)
        h = TransformedHamiltonian(
            base=HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.2),
            x_scale=0.5, x_shift=(0.1, -0.2),
        )
        records = complete_cascade(const_field(window, 0.0), chain_unit, 3, h)
        assert len(records) == 4
        assert counts["steps"] > 0
        assert counts["transformed"] == counts["steps"]
        assert counts["spec"] == counts["nested"] == 0

    def test_bound_ratio_is_the_decay_constant(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 2, POWER_LAW)
        for a, b in zip(records, records[1:]):
            assert b.osc_bound / a.osc_bound == pytest.approx(
                chain_unit.decay_ratio, rel=1e-12
            )

    def test_single_record_run(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 0, POWER_LAW)
        assert len(records) == 1
        assert records[0].osc_bound == pytest.approx(
            4.0 * chain_unit.decay_ratio, rel=1e-12
        )

    def test_window_geometry_shrinks(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 2, POWER_LAW)
        a = chain_unit.zoom_ratio ** chain_unit.zoom_time_exponent
        for m, r in enumerate(records):
            assert r.radius == pytest.approx(
                0.5 * chain_unit.zoom_ratio**m, rel=1e-12
            )
            assert r.t_depth == pytest.approx(a**m, rel=1e-12)

    def test_smooth_field_stays_satisfied(self, window, chain_unit):
        f = make_field(
            window,
            lambda t, x: 0.5 * np.cos(np.pi * x[..., 0] / 2.5)
            * np.cos(np.pi * x[..., 1] / 2.5),
        )
        records = complete_cascade(f, chain_unit, 2, POWER_LAW)
        assert all(r.satisfied for r in records)
        oscs = [r.osc_measured for r in records if r.osc_measured > 0]
        assert oscs == sorted(oscs, reverse=True)

    def test_scale_consistency_across_resolutions(self, chain_unit):
        def profile(t, x):
            return 0.5 * np.cos(np.pi * x[..., 0] / 2.5) * np.cos(
                np.pi * x[..., 1] / 2.5)

        coarse_spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=24,
                               t_start=-4.0, t_end=0.0, dt=0.125)
        fine_spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=48,
                             t_start=-4.0, t_end=0.0, dt=0.0625)
        coarse = make_field(coarse_spec, profile)
        fine = make_field(fine_spec, profile)
        rec_c = complete_cascade(coarse, chain_unit, 1, POWER_LAW)
        rec_f = complete_cascade(fine, chain_unit, 1, POWER_LAW)
        slack = 3.0 * one_cell_oscillation(coarse)
        for a, b in zip(rec_c, rec_f):
            assert abs(a.osc_measured - b.osc_measured) <= slack

    def test_unbounded_input_rejected(self, window, chain_unit):
        with pytest.raises(ValueError, match="bounded by 2"):
            zoom_cascade(const_field(window, 2.5), chain_unit, 1, POWER_LAW)

    def test_step_failure_carries_completed_records(self, window, chain_unit):
        f = make_field(window, lambda t, x: 0.3 * np.sin(2.0 * x[..., 0]))
        bad_cfg = SolveConfig(sigma_mode="fixed", sigma_bound=1e-9)
        records, aborted = zoom_cascade(f, chain_unit, 2, POWER_LAW,
                                        solve_config=bad_cfg)
        assert aborted.startswith("cascade aborted at level 0: ")
        assert len(records) >= 1
        assert records[0].level == 0

    def test_an_aborted_resolve_retries_at_half_the_step(self, window, chain_unit,
                                                        monkeypatch):
        real_solve, steps = rescale.solve, []

        def abort_once(spec, *args, **kwargs):
            steps.append(spec.dt)
            if len(steps) == 1:
                raise SolverError("forced abort", 0)
            return real_solve(spec, *args, **kwargs)

        monkeypatch.setattr(rescale, "solve", abort_once)
        records, aborted = zoom_cascade(const_field(window, 0.0), chain_unit, 1,
                                        POWER_LAW)
        assert aborted is None
        assert [r.level for r in records] == [0, 1]
        assert len(steps) == 2
        assert steps[1] == 0.5 * steps[0]

    def test_a_step_limit_refusal_is_not_retried(self, monkeypatch):
        """Halving the step only doubles the steps a re-solve needs, so a
        grid refused for ``max_steps`` is tried once, and the cascade
        reports that attempt's count."""
        data = bundled_config("rough-eta-sweep")
        del data["sweep"]
        data.update(checks=["theorem"], solve={"max_steps": 500})
        data["theorem"]["working_cells"] = 96
        real_solve, steps = rescale.solve, []

        def counted(spec, *args, **kwargs):
            steps.append(spec.n_steps)
            return real_solve(spec, *args, **kwargs)

        monkeypatch.setattr(rescale, "solve", counted)
        report, _ = experiment._compute(ExperimentConfig.from_json_dict(data))
        [theorem] = report.checks
        aborted = [e["aborted"] for e in theorem["entries"] if "aborted" in e]
        assert aborted[0] == ("cascade aborted at level 0: grid needs 520 steps, "
                              "exceeding max_steps=500")
        assert len(aborted) == 2
        # one attempt at each refused grid, none at half its step
        assert [n for n in steps if n > 500] == [520, 598]

    def test_records_csv_shape(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 1, POWER_LAW)
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "m,radius,t_depth,osc_measured,osc_bound,d_m,satisfied"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.5
        assert first[-1] == "true"

    def test_cascade_status_ranks_an_abort_above_a_refutation(self):
        bad = OscillationRecord(level=0, radius=0.5, t_depth=1.0, osc_measured=1.0,
                                osc_bound=0.5, recenter=0.0, satisfied=False,
                                tolerance=0.0)
        good = replace(bad, satisfied=True)
        assert cascade_status([good], None) == "pass"
        assert cascade_status([good, bad], None) == "refuted"
        assert cascade_status([good, bad], "cascade aborted at level 1: x") == "error"
        assert cascade_status([], "cascade aborted at level 0: x") == "error"


def synthetic_records(exponent, chain, n=6, prefactor=1.0):
    records = []
    for m in range(n):
        r = 0.5 * chain.zoom_ratio**m
        records.append(
            OscillationRecord(
                level=m,
                radius=r,
                t_depth=0.5**m,
                osc_measured=prefactor * r**exponent,
                osc_bound=4.0,
                recenter=0.0,
                satisfied=True,
                tolerance=0.0,
            )
        )
    return records


class TestHolderEstimate:
    def test_recovers_linear_modulus(self, chain_unit):
        est = holder_estimate(synthetic_records(1.0, chain_unit), chain_unit)
        assert not est.degenerate
        assert est.alpha_est == pytest.approx(1.0, abs=1e-6)
        assert est.c_est == pytest.approx(1.0, rel=1e-6)
        assert est.fit_residual < 1e-9

    def test_recovers_square_root_modulus(self, chain_unit):
        est = holder_estimate(synthetic_records(0.5, chain_unit), chain_unit)
        assert est.alpha_est == pytest.approx(0.5, abs=1e-6)

    def test_theory_exponent_is_tiny_but_positive(self, chain_unit):
        est = holder_estimate(synthetic_records(1.0, chain_unit), chain_unit)
        assert est.alpha_theory == chain_unit.holder_exponent
        assert 0.0 < est.alpha_theory < 1e-5

    def test_flat_records_are_degenerate(self, window, chain_unit):
        records = complete_cascade(const_field(window, 0.0), chain_unit, 3, POWER_LAW)
        est = holder_estimate(records, chain_unit)
        assert est.degenerate
        assert est.points_used == 0
        assert est.alpha_est == math.inf

    def test_noise_floor_filters_records(self, chain_unit):
        records = synthetic_records(1.0, chain_unit, n=4)
        noisy = records + [
            OscillationRecord(
                level=4,
                radius=0.01,
                t_depth=0.0625,
                osc_measured=1e-9,
                osc_bound=4.0,
                recenter=0.0,
                satisfied=True,
                tolerance=1e-6,
            )
        ]
        est = holder_estimate(noisy, chain_unit)
        assert est.points_used == 4


class TestGaugeToWindow:
    def test_clean_solution_passes_through(self, box2):
        traj = solve(box2, POWER_LAW, lambda x: np.zeros(x.shape[:-1]))
        out, gauged, gamma = gauge_to_window(traj.field, POWER_LAW.declared_envelope())
        assert not gauged
        assert gamma == 1.0
        assert out.field is traj.field
        assert out.rate == 0.0
        np.testing.assert_array_equal(out.rows(0, box2.n_slices),
                                      traj.field.values)

    def test_fast_decay_gets_gauged_and_capped(self, box2, env_unit):
        f = make_field(box2, lambda t, x: -3.0 * t)
        out, gauged, gamma = gauge_to_window(f, env_unit)
        assert gauged
        assert gamma == pytest.approx(0.5, rel=1e-9)
        # the raw field and the rate, read back as the shifted field
        assert out.field is f
        assert out.rate == env_unit.lam
        values = out.rows(0, box2.n_slices)
        assert np.array_equal(values, gauge_shift(f, env_unit).values)
        assert np.abs(gamma * values).max() <= 2.0 * (1.0 + 1e-12)

    @pytest.fixture()
    def blocks4(self):
        """100 steps of 64^2 cells: four residual blocks, the last of 4 rows."""
        return GridSpec(dimension=2, half_width=1.5, cells_per_axis=64,
                        t_start=-2.0, t_end=2.0, dt=0.04)

    @staticmethod
    def gauge_rows(f, env):
        """``gauge_to_window`` of ``f`` and the rows of the gauge's residual
        report that it read, from one scan of the whole field."""
        scan, tables, rows = gauge_scan(f.spec, env)
        scan.read(f)
        [report] = rows.reports()
        out, gauged, gamma = gauge_to_window(f, env, tables, report)
        whole = gauge_to_window(f, env)
        assert (whole[0].rate, whole[1], whole[2]) == (out.rate, gauged, gamma)
        return gauged, len(report.values)

    def test_failing_last_step_reads_every_row(self, blocks4, env_unit):
        last = blocks4.t_end - 0.5 * blocks4.dt
        f = make_field(blocks4, lambda t, x: 0.1 * np.cos(x[..., 0])
                       - 3.0 * (t > last))
        gauged, rows = self.gauge_rows(f, env_unit)
        assert gauged
        assert rows == blocks4.n_slices - 1
        assert math.ceil(rows / (_BLOCK_CELLS // 64**2)) == 4

    def test_failing_first_step_reads_one_block(self, blocks4, env_unit):
        first = blocks4.t_start + 0.5 * blocks4.dt
        f = make_field(blocks4, lambda t, x: 0.1 * np.cos(x[..., 0])
                       - 3.0 * (t > first))
        assert self.gauge_rows(f, env_unit) == (True, _BLOCK_CELLS // 64**2)

    @pytest.mark.parametrize("offset", [0.0, 3.0])
    def test_a_windowed_solve_scans_as_its_full_field(self, blocks4, env_unit,
                                                      offset):
        """The scan the march feeds takes the same residual rows, gauge and
        cap as a scan of the whole field, which the kept slices cannot give."""
        h = HamiltonianSpec(kind="scaled-power-law", p=1.5, offset=offset)
        u0 = lambda x: 0.01 * np.cos(2.0 * x[..., 0])
        field = solve(blocks4, h, u0).field
        out, gauged, gamma = gauge_to_window(field, env_unit)
        full_scan, _, full_rows = gauge_scan(blocks4, env_unit)
        full_scan.read(field)
        scan, tables, rows = gauge_scan(blocks4, env_unit)
        traj = solve(blocks4, h, u0, keep=[range(3, 5)], scan=scan)
        [report], [full] = rows.reports(), full_rows.reports()
        windowed, w_gauged, w_gamma = gauge_to_window(traj.field, env_unit,
                                                      tables, report)
        assert report.values.tobytes() == full.values.tobytes()
        assert len(report.values) == (_BLOCK_CELLS // 64**2 if offset
                                      else blocks4.n_slices - 1)
        assert (w_gauged, w_gamma, windowed.rate) == (gauged, gamma, out.rate)
        assert windowed.field is traj.field
        with pytest.raises(IndexError, match="not all kept"):
            gauge_to_window(traj.field, env_unit)


@pytest.fixture(scope="module")
def working():
    return GridSpec(dimension=2, half_width=1.25, cells_per_axis=16,
                    t_start=-4.0, t_end=0.0, dt=0.25)


_CHAINS = {alpha: build_constant_chain(2, 1.5, 2.0, alpha) for alpha in (16.0, 4.0, 1.0, 0.5)}


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.sampled_from(sorted(_CHAINS)),
    t_start=st.sampled_from([-2.0, 0.0, 0.3]),
    n_steps=st.integers(min_value=4, max_value=300),
    span=st.sampled_from([1.0, 2.5, 4.0]),
    cells=st.integers(min_value=8, max_value=20),
    t0_at=st.one_of(st.floats(min_value=1e-6, max_value=1.0),
                    st.integers(min_value=1, max_value=300)),
    gamma=st.floats(min_value=1e-3, max_value=1.0),
    x0=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    rate=st.sampled_from([0.0, 2.0]),
)
def test_base_point_window_reads_only_the_declared_slices(
    alpha, t_start, n_steps, span, cells, t0_at, gamma, x0, rate
):
    """A field that keeps only ``base_point_slices`` windows exactly as the
    whole field; a read outside them would raise."""
    chain = _CHAINS[alpha]
    spec = GridSpec(dimension=2, half_width=1.25, cells_per_axis=cells,
                    t_start=t_start, t_end=t_start + span, dt=span / n_steps)
    if isinstance(t0_at, int):  # on a slice time, or between two
        t0 = float(spec.times()[min(t0_at, n_steps)])
    else:
        t0 = t_start + t0_at * span
    rng = np.random.default_rng(n_steps * cells)
    full = ScalarField(spec, rng.uniform(-1.0, 1.0, (spec.n_slices, *spec.spatial_shape)))
    kept = base_point_slices(spec, chain, t0)
    part = ScalarField(spec, full.values[kept.start:kept.stop].copy(),
                       np.arange(kept.start, kept.stop))
    working = GridSpec(dimension=2, half_width=1.25, cells_per_axis=8,
                       t_start=-4.0, t_end=0.0, dt=4.0 / 7)
    x0 = tuple(c * spec.half_width for c in x0)
    want, _, tau, rho = base_point_window(GaugedField(full, rate), chain, t0, x0,
                                          gamma, working, POWER_LAW)
    got, _, _, _ = base_point_window(GaugedField(part, rate), chain, t0, x0,
                                     gamma, working, POWER_LAW)
    assert got.values.tobytes() == want.values.tobytes()
    assert tau <= (t0 - t_start) / 4.0


class TestBasePointWindow:
    def test_constant_field_maps_to_scaled_constant(self, box2, chain_double,
                                                    working):
        f = const_field(box2, 1.5)
        w, _, tau, rho = base_point_window(f, chain_double, 0.0, (0.0, 0.0),
                                           1.0, working, POWER_LAW)
        np.testing.assert_allclose(w.values, 1.5, rtol=0, atol=1e-12)
        assert tau > 0 and rho > 0

    def test_scaling_relation(self, box2, chain_double, working):
        gamma = 0.5
        f = const_field(box2, 1.0)
        _, _, tau, rho = base_point_window(f, chain_double, 0.5, (0.25, -0.25),
                                           gamma, working, POWER_LAW)
        assert (gamma * rho) ** chain_double.p == pytest.approx(
            gamma * tau, rel=1e-12
        )
        assert gamma * tau <= 1.0 + 1e-12

    def test_transformed_hamiltonian_comes_back(self, box2, chain_double,
                                                working):
        f = const_field(box2, 0.0)
        _, h_w, _, _ = base_point_window(f, chain_double, 0.0, (0.0, 0.0), 1.0,
                                         working, hamiltonian=POWER_LAW)
        assert h_w.base is POWER_LAW
        assert float(h_w.eval(0.0, np.zeros(2), np.zeros(2))) == 0.0

    def test_no_time_room_is_an_error(self, box2, chain_double, working):
        f = const_field(box2, 0.0)
        with pytest.raises(ValueError, match="time room"):
            base_point_window(f, chain_double, box2.t_start, (0.0, 0.0), 1.0,
                              working, POWER_LAW)

    def test_boundary_point_is_an_error(self, box2, chain_double, working):
        f = const_field(box2, 0.0)
        with pytest.raises(ValueError, match="boundary"):
            base_point_window(f, chain_double, 0.0, (1.2, 0.0), 1.0, working,
                              POWER_LAW)


class TestTheoremCheck:
    def test_zero_solution_is_everywhere_degenerate(self, box2, chain_double,
                                                    env_unit):
        traj = solve(box2, POWER_LAW, lambda x: np.zeros(x.shape[:-1]))
        report = theorem_check(traj.field, 1.0, chain_double, env_unit, POWER_LAW,
                               TheoremSettings(points_per_axis=2, levels=2,
                                               working_cells=16, working_slices=16))
        assert report.n_unsatisfied == 0
        assert report.max_quotient == 0.0
        assert report.n_degenerate == len(report.entries)
        assert len(report.entries) == 2 * 2**2

    def test_delta_time_bounds(self, box2, chain_double, env_unit):
        traj = solve(box2, POWER_LAW, lambda x: np.zeros(x.shape[:-1]))
        with pytest.raises(ValueError, match="delta_time"):
            theorem_check(traj.field, -3.0, chain_double, env_unit, POWER_LAW,
                          TheoremSettings())

    def test_chain_envelope_coupling(self, box2, chain_unit, env_unit):
        traj = solve(box2, POWER_LAW, lambda x: np.zeros(x.shape[:-1]))
        with pytest.raises(ValueError, match="twice"):
            theorem_check(traj.field, 1.0, chain_unit, env_unit, POWER_LAW,
                          TheoremSettings())
