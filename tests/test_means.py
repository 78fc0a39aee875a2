import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latreg import (Dataset, Direction, MeanRequest, MissingVertexError,
                    NonFiniteResultError, UNITY, ZeroWeightError,
                    build_lattice, mean_operator,
                    self_weighting_mean, simulate_convergence, standard_mean,
                    weighted_mean)

from conftest import X, Y


class TestMeanOperator:
    def test_unity_vertex_is_standard_mean(self, d1):
        req = MeanRequest(vertex=(UNITY, UNITY), target=X)
        assert mean_operator(d1, req) == 2.0

    def test_self_weighting_vertex(self, d1):
        req = MeanRequest(vertex=(UNITY, X), target=X)
        assert mean_operator(d1, req) == pytest.approx(7.0 / 3.0, rel=1e-15)

    def test_randomly_weighted_vertex(self, d1):
        req = MeanRequest(vertex=(UNITY, Y), target=X)
        assert mean_operator(d1, req) == pytest.approx(2.3, rel=1e-15)

    def test_level_two_vertex_weights(self, d1):
        # weights x*y, target x: sum(x^2 y) / sum(x y) = 59 / 23
        req = MeanRequest(vertex=(X, Y), target=X)
        assert mean_operator(d1, req) == pytest.approx(59.0 / 23.0, rel=1e-15)

    def test_zero_weight_error(self):
        data = Dataset({"x": [1.0, -1.0], "y": [3.0, 4.0]})
        with pytest.raises(ZeroWeightError):
            mean_operator(data, MeanRequest(vertex=(UNITY, X), target=Y))

    def test_weight_sum_near_zero_is_not_zero(self):
        # sum(w) = 2^-40 is tiny next to sum(|w|) = 2, but not zero.
        data = Dataset({"x": [3.0, 4.0], "w": [1.0, -1.0 + 2.0**-40]})
        assert weighted_mean(data, "x", "w") == -2.0**40 + 4
        lat = build_lattice(data, [UNITY, X, Direction("w")])
        assert weighted_mean(lat, "x", "w") == -2.0**40 + 4

    def test_exact_zero_sum_on_lattice(self):
        lat = build_lattice(Dataset({"x": [1.0, -1.0]}), [UNITY, X])
        with pytest.raises(ZeroWeightError, match=r"vertex \(1, x\)"):
            self_weighting_mean(lat, "x")

    def test_lattice_without_the_vertex(self, d1):
        lat = build_lattice(d1, [UNITY, X])
        with pytest.raises(MissingVertexError):
            weighted_mean(lat, "x", "y")

    def test_all_zero_weights(self):
        data = Dataset({"x": [0.0, 0.0], "y": [3.0, 4.0]})
        with pytest.raises(ZeroWeightError):
            mean_operator(data, MeanRequest(vertex=(UNITY, X), target=Y))

    @pytest.mark.parametrize("lattice", [False, True])
    def test_level_two_vertex_beyond_float_range(self, lattice):
        # V(x, y) = 2e400 and V(x*y, x) = 2e600 both overflow; their ratio
        # is x exactly.
        data = Dataset({"x": [1e200, 1e200], "y": [1e200, 1e200]})
        source = build_lattice(data, [UNITY, X, Y, X * Y]) if lattice else data
        req = MeanRequest(vertex=(X, Y), target=X)
        assert mean_operator(source, req) == 1e200

    @pytest.mark.parametrize("lattice", [False, True])
    def test_ratio_beyond_float_range(self, lattice):
        # sum(w) = 2^-40 and sum(w x) is about 2^1000: the mean is 2^1040.
        data = Dataset({"x": [2.0 ** 1000, 1.0], "w": [1.0, -1.0 + 2.0 ** -40]})
        source = (build_lattice(data, [UNITY, X, Direction("w")]) if lattice
                  else data)
        with pytest.raises(NonFiniteResultError,
                           match=r"^mean V\(w, x\) / V\(1, w\) is outside"):
            weighted_mean(source, "x", "w")

    def test_matches_standard_mean_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.normal(rng.uniform(-10, 10), 2.0, int(rng.integers(1, 40)))
            data = Dataset({"x": values})
            req = MeanRequest(vertex=(UNITY, UNITY), target=X)
            assert mean_operator(data, req) == standard_mean(data, "x")

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=1, max_size=20),
           st.floats(min_value=0.25, max_value=8.0))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariance(self, values, scale):
        weights = [1.0 + i * 0.5 for i in range(len(values))]
        base = Dataset({"x": values, "w": weights})
        scaled = Dataset({"x": [v * scale for v in values], "w": weights})
        req = MeanRequest(vertex=(UNITY, Direction("w")), target=X)
        assert math.isclose(mean_operator(scaled, req),
                            scale * mean_operator(base, req),
                            rel_tol=1e-12, abs_tol=1e-12)


class TestStandardMean:
    def test_fixtures(self, d1):
        assert standard_mean(d1, "x") == 2.0
        assert standard_mean(d1, "y") == pytest.approx(10.0 / 3.0, rel=1e-15)

    def test_single_observation(self):
        assert standard_mean(Dataset({"x": [42.5]}), "x") == 42.5


class TestSelfWeightingMean:
    def test_fixture(self, d1):
        assert self_weighting_mean(d1, "y") == pytest.approx(3.8, rel=1e-15)

    def test_reciprocal_of_implicit_coefficient(self, d1):
        # 1 = alpha * y fitted by least squares gives alpha = sum(y)/sum(y^2)
        alpha = 10.0 / 38.0
        assert self_weighting_mean(d1, "y") == pytest.approx(1.0 / alpha, rel=1e-12)

    def test_constant_column(self):
        data = Dataset({"x": [6.0, 6.0, 6.0]})
        assert self_weighting_mean(data, "x") == 6.0

    def test_zero_sum_error(self):
        data = Dataset({"x": [1.0, -1.0]})
        with pytest.raises(ZeroWeightError):
            self_weighting_mean(data, "x")

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_dominates_standard_mean_for_positive_data(self, values):
        data = Dataset({"x": values})
        sw = self_weighting_mean(data, "x")
        mean = standard_mean(data, "x")
        assert sw >= mean - 1e-9 * abs(mean)
        if max(values) - min(values) > 1e-6 * max(values):
            assert sw > mean


class TestWeightedMean:
    def test_fixture(self, d1):
        assert weighted_mean(d1, "x", "y") == pytest.approx(2.3, rel=1e-15)

    def test_comparable_to_standard_mean(self):
        # x ~ Normal(100, 1), independent uniform weights: the randomly
        # weighted mean stays within 0.2 of the plain mean at n=1000.
        rng = np.random.default_rng(42)
        for _ in range(20):
            data = Dataset({"x": rng.normal(100.0, 1.0, 1000),
                            "w": rng.uniform(0.0, 1.0, 1000)})
            dev = abs(weighted_mean(data, "x", "w") - standard_mean(data, "x"))
            assert dev < 0.2


class TestSimulateConvergence:
    def test_deterministic_for_seed(self):
        a = simulate_convergence(seed=9, n=100, mu=50.0, sigma=2.0, trials=5)
        b = simulate_convergence(seed=9, n=100, mu=50.0, sigma=2.0, trials=5)
        assert a == b

    def test_seed_changes_output(self):
        a = simulate_convergence(seed=9, n=100, mu=50.0, sigma=2.0, trials=5)
        b = simulate_convergence(seed=10, n=100, mu=50.0, sigma=2.0, trials=5)
        assert a != b

    def test_tiny_sigma_limit(self):
        stats = simulate_convergence(seed=4, n=100, mu=100.0, sigma=1e-12,
                                     trials=5)
        assert stats["random_weight_dev_max"] <= 1e-9
        assert stats["self_weight_dev_max"] <= 1e-9

    def test_smoke_minimal(self):
        stats = simulate_convergence(seed=1, n=2, mu=0.5, sigma=1.0, trials=1)
        assert stats["trials"] == 1

    @pytest.mark.parametrize("mu, sigma, named", [
        (0.0, math.nan, "sigma"), (0.0, math.inf, "sigma"),
        (math.inf, 1.0, "mu"), (-math.inf, 1.0, "mu"), (math.nan, 1.0, "mu")])
    def test_non_finite_parameter_is_named(self, mu, sigma, named):
        with pytest.raises(ValueError, match=f"^{named} must be finite"):
            simulate_convergence(seed=1, n=10, mu=mu, sigma=sigma, trials=1)

    def test_overflowing_draws_name_the_parameters(self):
        with pytest.raises(ValueError, match=r"^draws from Normal\(mu=1\.7e\+308, "
                           r"sigma=1e\+308\) overflow the float range$"):
            simulate_convergence(seed=1, n=10, mu=1.7e308, sigma=1e308,
                                 trials=1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simulate_convergence(seed=1, n=1, mu=0.0, sigma=1.0, trials=1)
        with pytest.raises(ValueError):
            simulate_convergence(seed=1, n=10, mu=0.0, sigma=0.0, trials=1)
        with pytest.raises(ValueError):
            simulate_convergence(seed=1, n=10, mu=0.0, sigma=1.0, trials=0)
