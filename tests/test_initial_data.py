"""Initial-data catalog: deterministic draws, parameter validation, bounds."""

import numpy as np
import pytest

from hjreg.grid import ConfigError, GridSpec
from hjreg.initial_data import make_initial_function


@pytest.fixture(scope="module")
def plane():
    return GridSpec(dimension=2, half_width=1.0, cells_per_axis=16,
                    t_start=0.0, t_end=1.0, dt=0.25)


class TestCatalog:
    def test_names_are_sorted_and_complete(self, plane):
        # the unknown-name error lists the catalog
        names = "cone, constant, random-trig, sine-product, zero"
        with pytest.raises(ConfigError, match=f"catalog has {names}$"):
            make_initial_function(plane, "not-a-generator")


class TestValidateDescriptor:
    """The name and parameters are checked before anything is drawn."""

    def test_unknown_name_is_named_in_the_error(self, plane):
        with pytest.raises(ConfigError, match="not-a-generator"):
            make_initial_function(plane, "not-a-generator")

    def test_unknown_parameter_is_named(self, plane):
        with pytest.raises(ConfigError, match="slope"):
            make_initial_function(plane, "cone", {"slope": 2.0})
        # the grid's dimension is not a parameter, though the cone reads it
        with pytest.raises(ConfigError, match="dimension"):
            make_initial_function(plane, "cone", {"dimension": 2})

    def test_zero_accepts_no_parameters(self, plane):
        make_initial_function(plane, "zero", None)
        make_initial_function(plane, "zero", {})
        with pytest.raises(ConfigError, match="amplitude"):
            make_initial_function(plane, "zero", {"amplitude": 1.0})

    def test_known_parameters_pass(self, plane):
        make_initial_function(
            plane,
            "random-trig",
            {"amplitude": 1.0, "offset": 0.0, "bandwidth": 2, "n_modes": 4},
        )


class TestSimpleShapes:
    def test_zero(self, plane):
        vals = make_initial_function(plane, "zero")(plane.centers())
        assert vals.shape == plane.spatial_shape
        assert np.all(vals == 0.0)

    def test_constant(self, plane):
        vals = make_initial_function(plane, "constant", {"value": -3.0})(plane.centers())
        assert np.all(vals == -3.0)
        assert np.all(make_initial_function(plane, "constant")(plane.centers()) == 1.0)

    def test_cone_is_the_shifted_distance_function(self, plane):
        params = {"amplitude": 2.0, "center": [0.5, 0.0], "offset": 1.0}
        vals = make_initial_function(plane, "cone", params)(plane.centers())
        centers = plane.centers()
        expected = 2.0 * np.linalg.norm(
            centers - np.array([0.5, 0.0]), axis=-1) + 1.0
        np.testing.assert_allclose(vals, expected, rtol=1e-12)

    def test_cone_slope_equals_amplitude(self, plane):
        fn = make_initial_function(plane, "cone", {"amplitude": 1.75})
        pts = np.array([[0.25, 0.0], [0.75, 0.0]])
        a, b = fn(pts)
        assert (b - a) / 0.5 == pytest.approx(1.75, rel=1e-12)

    def test_cone_center_length_is_checked(self, plane):
        with pytest.raises(ValueError, match="center"):
            make_initial_function(plane, "cone", {"center": [0.0]})

    def test_sine_product_formula(self, plane):
        fn = make_initial_function(plane, "sine-product",
                                   {"amplitude": 2.0, "frequency": 1.0})
        pts = plane.centers().reshape(-1, 2)
        expected = 2.0 * np.prod(np.sin(np.pi * pts / plane.half_width),
                                 axis=-1)
        np.testing.assert_allclose(fn(pts), expected, rtol=1e-12)

    def test_sine_product_vanishes_on_the_box_boundary(self, plane):
        fn = make_initial_function(plane, "sine-product")
        corners = np.array([[1.0, 1.0], [-1.0, 0.3], [0.7, -1.0]])
        np.testing.assert_allclose(fn(corners), 0.0, atol=1e-12)


class TestRandomTrig:
    def test_same_seed_reproduces_the_draw(self, plane):
        a = make_initial_function(plane, "random-trig", seed=7)(plane.centers())
        b = make_initial_function(plane, "random-trig", seed=7)(plane.centers())
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self, plane):
        a = make_initial_function(plane, "random-trig", seed=7)(plane.centers())
        b = make_initial_function(plane, "random-trig", seed=8)(plane.centers())
        assert np.abs(a - b).max() > 1e-6

    def test_sup_bound(self, plane):
        params = {"amplitude": 1.5, "offset": 0.25}
        fn = make_initial_function(plane, "random-trig", params, seed=11)
        dense = np.stack(
            np.meshgrid(np.linspace(-1, 1, 101), np.linspace(-1, 1, 101),
                        indexing="ij"),
            axis=-1,
        ).reshape(-1, 2)
        assert np.abs(fn(dense)).max() <= 1.5 + 0.25 + 1e-12

    def test_draw_is_resolution_independent(self, plane):
        fine = GridSpec(dimension=2, half_width=1.0, cells_per_axis=64,
                        t_start=0.0, t_end=1.0, dt=0.25)
        pts = plane.centers().reshape(-1, 2)
        f_coarse = make_initial_function(plane, "random-trig", seed=3)
        f_fine = make_initial_function(fine, "random-trig", seed=3)
        np.testing.assert_array_equal(f_coarse(pts), f_fine(pts))

    @pytest.mark.parametrize("params", [{"bandwidth": 0}, {"n_modes": 0}])
    def test_degenerate_mode_counts_rejected(self, plane, params):
        with pytest.raises(ValueError):
            make_initial_function(plane, "random-trig", params)
