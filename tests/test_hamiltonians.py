"""Hamiltonian catalog: evaluation, envelopes, gauge shifts, reparametrization."""

import math

import numpy as np
import pytest

from hjreg.experiment import ExperimentConfig
from hjreg.grid import GridSpec, make_field
from hjreg.hamiltonians import (
    CoercivityEnvelope,
    HamiltonianSpec,
    TabulatedCoefficient,
    TransformedHamiltonian,
    coercivity_check,
    gauge_shift,
)

from conftest import const_field, coordinate_field, noise_field


def sample_cloud(dimension, rng, n_points=16, n_grads=12):
    points = rng.uniform(-1.0, 1.0, size=(n_points, dimension))
    grads = rng.uniform(-3.0, 3.0, size=(n_grads, dimension))
    return points, grads


class TestEvaluation:
    def test_quadratic_at_unit_diagonal(self):
        h = HamiltonianSpec(kind="power-law", p=2.0)
        out = h.eval(0.0, np.zeros(2), np.array([1.0, 1.0]))
        assert out == pytest.approx(2.0, rel=1e-12)

    def test_zero_gradient_gives_zero(self):
        h = HamiltonianSpec(kind="power-law", p=1.5)
        assert h.eval(0.3, np.zeros(2), np.zeros(2)) == 0.0

    def test_rough_checkerboard_values(self):
        h = HamiltonianSpec(kind="rough-coefficient", p=2.0, lam=2.0, eta=0.25)
        even = h.eval(0.0, np.array([0.1, 0.1]), np.array([1.0, 0.0]))
        odd = h.eval(0.0, np.array([0.3, 0.1]), np.array([1.0, 0.0]))
        assert even == pytest.approx(2.0, rel=1e-12)
        assert odd == pytest.approx(0.5, rel=1e-12)

    def test_scaled_kind_applies_offset(self):
        h = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=3.0,
                            offset=-0.25)
        grad = np.array([0.0, 2.0])
        assert h.eval(0.0, np.zeros(2), grad) == pytest.approx(
            3.0 * 2.0**1.5 - 0.25, rel=1e-12
        )

    def test_tabulated_lookup(self):
        table = TabulatedCoefficient(
            dimension=1, t_edges=(0.0, 1.0), half_width=1.0,
            cells_per_axis=2, values=(0.5, 2.0),
        )
        h = HamiltonianSpec(kind="tabulated", p=2.0, table=table)
        left = h.eval(0.5, np.array([-0.5]), np.array([1.0]))
        right = h.eval(0.5, np.array([0.5]), np.array([1.0]))
        assert left == pytest.approx(0.5, rel=1e-12)
        assert right == pytest.approx(2.0, rel=1e-12)

    def test_tabulated_array_is_built_once(self):
        table = TabulatedCoefficient(
            dimension=1, t_edges=(0.0, 1.0, 2.0), half_width=1.0,
            cells_per_axis=2, values=(0.5, 2.0, 3.0, 4.0),
        )
        first = table._array
        assert table.lookup(1.5, np.array([[0.5]]))[0] == 4.0
        assert table._array is first
        assert first.shape == (2, 2) and not first.flags.writeable

    @pytest.mark.parametrize(
        "kind,extra",
        [
            ("power-law", {}),
            ("scaled-power-law", {"coefficient": 3.0, "offset": 0.5}),
            ("rough-coefficient", {"lam": 2.0, "eta": 0.25}),
        ],
    )
    def test_gradient_homogeneity(self, kind, extra, rng):
        h = HamiltonianSpec(kind=kind, p=1.5, **extra)
        x = rng.uniform(-1, 1, size=2)
        grad = rng.uniform(-2, 2, size=2)
        alpha = 1.7
        base = h.eval(0.0, x, grad) - getattr(h, "offset", 0.0)
        scaled = h.eval(0.0, x, alpha * grad) - getattr(h, "offset", 0.0)
        assert scaled == pytest.approx(abs(alpha) ** 1.5 * base, rel=1e-12)

    def test_batched_eval_matches_pointwise(self, rng):
        h = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25)
        x = rng.uniform(-1, 1, size=(5, 2))
        grad = rng.uniform(-2, 2, size=(5, 2))
        batch = h.eval(0.0, x, grad)
        single = [float(h.eval(0.0, x[i], grad[i])) for i in range(5)]
        np.testing.assert_allclose(batch, single, rtol=1e-14)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            HamiltonianSpec(kind="mystery", p=2.0)

    @pytest.mark.parametrize("p", [1.0, 0.5, -2.0])
    def test_exponent_must_exceed_one(self, p):
        with pytest.raises(ValueError, match="exceed 1"):
            HamiltonianSpec(kind="power-law", p=p)

    def test_rough_contrast_floor(self):
        with pytest.raises(ValueError, match="lam"):
            HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=0.5)

    def test_scaled_needs_positive_coefficient(self):
        with pytest.raises(ValueError, match="coefficient"):
            HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=0.0)

    def test_envelope_floors(self):
        with pytest.raises(ValueError):
            CoercivityEnvelope(lam=0.5, p=1.5)
        with pytest.raises(ValueError):
            CoercivityEnvelope(lam=1.0, p=1.0)


class TestDeclaredEnvelope:
    def test_power_law_is_unit(self):
        h = HamiltonianSpec(kind="power-law", p=1.5)
        env = h.declared_envelope()
        assert env.lam == 1.0 and env.p == 1.5

    def test_scaled_uses_extreme_constants(self):
        h = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=64.0,
                            offset=-0.5)
        assert h.declared_envelope().lam == 64.0
        small = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=0.1)
        assert small.declared_envelope().lam == 10.0

    def test_rough_uses_contrast(self):
        h = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25)
        assert h.declared_envelope().lam == 2.0

    @pytest.mark.parametrize(
        "h",
        [
            HamiltonianSpec(kind="power-law", p=1.5),
            HamiltonianSpec(kind="power-law", p=2.0),
            HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=3.0,
                            offset=0.5),
            HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=4.0, eta=0.125),
        ],
    )
    def test_each_kind_sits_inside_declared_envelope(self, h, rng):
        points, grads = sample_cloud(2, rng)
        report = coercivity_check(h, h.declared_envelope(), [0.0, 0.7], points, grads)
        assert report.ok
        assert report.violations == ()


class TestCoercivityCheck:
    def test_unit_power_law_has_unit_margin(self, rng):
        h = HamiltonianSpec(kind="power-law", p=1.5)
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        points, grads = sample_cloud(2, rng)
        report = coercivity_check(h, env, [0.0], points, grads)
        assert report.margin == pytest.approx(1.0, rel=1e-12)

    def test_oversized_coefficient_violates_upper_bound(self):
        h = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=3.0)
        env = CoercivityEnvelope(lam=2.0, p=1.5)
        grads = np.array([[2.0, 0.0]])
        points = np.zeros((1, 2))
        report = coercivity_check(h, env, [0.0], points, grads)
        assert not report.ok
        assert report.n_samples == 1
        # Upper bound 2 * 2^1.5 + 2 sits below the value 3 * 2^1.5.
        assert report.min_upper_slack == pytest.approx(2.0 - 2.0**1.5, rel=1e-12)
        assert len(report.violations) == 1

    def test_violation_reporting_is_capped(self, rng):
        h = HamiltonianSpec(kind="scaled-power-law", p=1.5, coefficient=100.0)
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        points, grads = sample_cloud(2, rng)
        report = coercivity_check(h, env, [0.0, 1.0], points, grads,
                                  max_reported=4)
        assert not report.ok
        assert len(report.violations) == 4

    def test_sample_count_spans_product_cloud(self, rng):
        h = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25)
        points, grads = sample_cloud(2, rng, n_points=5, n_grads=3)
        report = coercivity_check(h, h.declared_envelope(), [0.0, 0.5], points,
                                  grads)
        assert report.n_samples == 2 * 5 * 3


@pytest.fixture(scope="module")
def short_spec():
    return GridSpec(dimension=1, half_width=1.0, cells_per_axis=8,
                    t_start=0.0, t_end=1.0, dt=0.25)


class TestGaugeShift:
    def test_zero_becomes_linear_drift(self, short_spec):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        shifted = gauge_shift(const_field(short_spec, 0.0), env)
        for i, t in enumerate(short_spec.times()):
            assert np.all(shifted.values[i] == pytest.approx(t, abs=1e-15))

    def test_drift_cancels_to_zero(self, short_spec):
        env = CoercivityEnvelope(lam=1.0, p=1.5)
        drifting = make_field(short_spec, lambda t, x: -t)
        flat = gauge_shift(drifting, env)
        assert np.max(np.abs(flat.values)) <= 4 * np.finfo(float).eps

    def test_linear_profile_with_double_constant(self, short_spec):
        env = CoercivityEnvelope(lam=2.0, p=1.5)
        shifted = gauge_shift(coordinate_field(short_spec), env)
        expected = make_field(short_spec, lambda t, x: x[..., 0] + 2.0 * t)
        np.testing.assert_allclose(shifted.values, expected.values, atol=1e-14)

    def test_round_trip_is_near_exact(self, box2, rng):
        env = CoercivityEnvelope(lam=2.0, p=1.5)
        f = noise_field(box2, rng)
        back = gauge_shift(gauge_shift(f, env), env, sign=-1.0)
        scale = 2.0 * max(abs(box2.t_start), abs(box2.t_end))
        assert np.max(np.abs(back.values - f.values)) <= 4 * np.finfo(float).eps * scale


class TestTransformedHamiltonian:
    def test_identity_wrap_matches_base(self, rng):
        base = HamiltonianSpec(kind="power-law", p=1.5)
        wrapped = TransformedHamiltonian(base=base)
        grad = rng.uniform(-2, 2, size=2)
        assert wrapped.eval(0.3, np.zeros(2), grad) == pytest.approx(
            float(base.eval(0.3, np.zeros(2), grad)), rel=1e-14
        )
        assert wrapped.p == 1.5

    def test_scales_compose_as_documented(self):
        base = HamiltonianSpec(kind="power-law", p=2.0)
        wrapped = TransformedHamiltonian(base=base, out_scale=3.0,
                                         grad_scale=0.5, const=-1.0)
        grad = np.array([2.0, 0.0])
        # 3 * (|0.5 * P|^2 - 1) with |P| = 2.
        assert wrapped.eval(0.0, np.zeros(2), grad) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift_only(self):
        base = HamiltonianSpec(kind="power-law", p=1.5)
        wrapped = TransformedHamiltonian(base=base, const=-2.0)
        assert wrapped.eval(0.0, np.zeros(2), np.zeros(2)) == -2.0

    def test_dissipation_bound_scales(self):
        base = HamiltonianSpec(kind="power-law", p=2.0)
        wrapped = TransformedHamiltonian(base=base, out_scale=3.0, grad_scale=0.5)
        # Base bound at |P| = 1 is p * 0.5 = 1; scaled by |3 * 0.5|.
        assert wrapped.dissipation_bound(1.0) == pytest.approx(1.5, rel=1e-12)

    def test_precomputed_coefficient_gives_the_same_bits(self, rng):
        base = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=3.0, eta=0.1)
        inner = TransformedHamiltonian(base=base, x_scale=0.3, x_shift=(0.2, -0.1))
        outer = TransformedHamiltonian(base=inner, x_scale=1.7, x_shift=(-0.05, 0.4),
                                       t_scale=2.0, out_scale=0.5, const=1.0)
        x = rng.uniform(-1, 1, size=(9, 9, 2))
        grad = rng.uniform(-2, 2, size=(9, 9, 2))
        coef = outer.coefficient_field(0.3, x)
        assert outer.static_coefficient
        assert outer.eval(0.3, x, grad, coefficient=coef).tobytes() == (
            outer.eval(0.3, x, grad).tobytes()
        )

    def test_tabulated_coefficient_depends_on_time(self):
        table = TabulatedCoefficient(
            dimension=1, t_edges=(0.0, 1.0), half_width=1.0,
            cells_per_axis=2, values=(0.5, 2.0),
        )
        h = TransformedHamiltonian(
            base=HamiltonianSpec(kind="tabulated", p=2.0, table=table)
        )
        assert not h.static_coefficient

    def test_nested_wrap(self):
        base = HamiltonianSpec(kind="power-law", p=2.0)
        inner = TransformedHamiltonian(base=base, grad_scale=2.0)
        outer = TransformedHamiltonian(base=inner, out_scale=0.25)
        grad = np.array([1.0, 0.0])
        assert outer.eval(0.0, np.zeros(2), grad) == pytest.approx(1.0, rel=1e-12)


class TestDissipationBound:
    def test_power_law_slope(self):
        h = HamiltonianSpec(kind="power-law", p=2.0)
        assert h.dissipation_bound(3.0) == pytest.approx(6.0, rel=1e-12)

    def test_rough_uses_sup_coefficient(self):
        h = HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25)
        assert h.dissipation_bound(4.0) == pytest.approx(2.0 * 1.5 * 2.0, rel=1e-12)

    def test_zero_gradient(self):
        h = HamiltonianSpec(kind="power-law", p=1.5)
        assert h.dissipation_bound(0.0) == 0.0


def read_config(section):
    """The Hamiltonian a scenario config reads from its section."""
    return ExperimentConfig.from_json_dict({
        "scenario": "round-trip",
        "grid": {"dimension": 1, "half_width": 1.0, "cells_per_axis": 8,
                 "t_start": 0.0, "t_end": 1.0, "dt": 0.125},
        "hamiltonian": section,
    }).hamiltonian


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "h",
        [
            HamiltonianSpec(kind="power-law", p=1.5),
            HamiltonianSpec(kind="scaled-power-law", p=2.0, coefficient=64.0,
                            offset=-0.125),
            HamiltonianSpec(kind="rough-coefficient", p=1.5, lam=2.0, eta=0.25),
        ],
    )
    def test_round_trip(self, h):
        assert read_config(h.to_config()) == h

    def test_tabulated_round_trip(self):
        table = TabulatedCoefficient(
            dimension=1, t_edges=(0.0, 0.5, 1.0), half_width=1.0,
            cells_per_axis=2, values=(0.5, 2.0, 1.0, 4.0),
        )
        h = HamiltonianSpec(kind="tabulated", p=2.0, table=table)
        assert read_config(h.to_config()) == h
