import math

import numpy as np
import pytest

from latreg import (ColumnNotFoundError, Dataset, DeterminantKind, Direction,
                    MissingVertexError, ModelSpec, NonFiniteResultError,
                    SingularSystemError, UNITY,
                    build_lattice, fit, fit_all_rotations, form_determinant,
                    measure_catalog, residual_report, solve)

from conftest import X, Y, Z, random_dataset, replicate
from oracles import ExactData, ols_solve, rounded


def spec(response, *regressors):
    return ModelSpec(response=response, regressors=tuple(regressors))


class TestModelSpec:
    def test_response_in_regressors_rejected(self):
        with pytest.raises(ValueError):
            spec(Y, UNITY, Y)

    def test_duplicate_regressors_rejected(self):
        with pytest.raises(ValueError):
            spec(Y, X, X)

    def test_regressor_count(self):
        with pytest.raises(ValueError):
            ModelSpec(response=Y, regressors=())
        with pytest.raises(ValueError):
            spec(Y, UNITY, X, Z, X * Y)

    def test_non_response_flag(self):
        assert spec(UNITY, X, Y).is_non_response
        assert not spec(Y, UNITY, X).is_non_response

    def test_label(self):
        assert spec(UNITY, X, Y, X * Y).label == "1 = x + y + x*y"


class TestSimpleLineFits:
    def test_y_on_x(self, d1):
        result = fit(d1, spec(Y, UNITY, X))
        assert result.coefficients == pytest.approx((1.0 / 3.0, 1.5), rel=1e-12)
        assert result.denominator == 6.0
        assert result.numerators == (2.0, 9.0)

    def test_x_on_y_rotation(self, d1):
        result = fit(d1, spec(X, UNITY, Y))
        assert result.coefficients == pytest.approx((-1.0 / 7.0, 9.0 / 14.0),
                                                    rel=1e-12)
        assert result.denominator == 14.0
        assert result.numerators == (-2.0, 9.0)

    def test_implicit_two_regressors(self, d1):
        result = fit(d1, spec(UNITY, X, Y))
        assert result.coefficients == pytest.approx((-2.0 / 3.0, 2.0 / 3.0),
                                                    rel=1e-12)
        assert result.denominator == 3.0
        assert result.numerators == (-2.0, 2.0)

    def test_mean_only_model(self, d1):
        result = fit(d1, spec(Y, UNITY))
        assert result.coefficients == pytest.approx((10.0 / 3.0,), rel=1e-15)
        assert result.denominator == 3.0
        assert result.numerators == (10.0,)

    def test_implicit_single_regressor(self, d1):
        # 1 = alpha * y: alpha = sum(y) / sum(y^2)
        result = fit(d1, spec(UNITY, Y))
        assert result.coefficients == pytest.approx((10.0 / 38.0,), rel=1e-12)
        assert result.denominator == 38.0

    def test_determinant_bookkeeping(self, d1):
        lat = build_lattice(d1, [UNITY, X, Y])
        y_fit = fit(d1, spec(Y, UNITY, X))
        assert y_fit.denominator == form_determinant(
            lat, DeterminantKind.variance(X))
        assert y_fit.numerators[0] == form_determinant(
            lat, DeterminantKind.internal_covariance(Y, X))
        assert y_fit.numerators[1] == form_determinant(
            lat, DeterminantKind.covariance(X, Y))

        x_fit = fit(d1, spec(X, UNITY, Y))
        assert x_fit.denominator == form_determinant(
            lat, DeterminantKind.variance(Y))

        unity_fit = fit(d1, spec(UNITY, X, Y))
        assert unity_fit.denominator == form_determinant(
            lat, DeterminantKind.base_variance(X, Y))
        assert unity_fit.numerators[0] == form_determinant(
            lat, DeterminantKind.internal_covariance(X, Y))
        assert unity_fit.numerators[1] == form_determinant(
            lat, DeterminantKind.internal_covariance(Y, X))

    def test_coefficient_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            data = random_dataset(rng)
            result = fit(data, spec(Y, UNITY, X))
            for c, num in zip(result.coefficients, result.numerators):
                assert math.isclose(c * result.denominator, num,
                                    rel_tol=1e-10, abs_tol=1e-10)

    def test_residuals_and_sse(self, d1):
        result = fit(d1, spec(Y, UNITY, X))
        residuals = d1.evaluate(Y) - result.predict(d1)
        assert residuals == pytest.approx((1.0 / 6.0, -1.0 / 3.0, 1.0 / 6.0),
                                          rel=1e-12)
        assert result.sse == pytest.approx(1.0 / 6.0, rel=1e-12)


class TestThreeRegressorFits:
    def test_exact_plane_recovery(self, d2):
        result = fit(d2, spec(UNITY, X, Y, Z))
        assert result.coefficients == pytest.approx((-2.0, 1.0, 1.0), rel=1e-12)
        assert result.denominator == 1.0
        assert result.numerators == (-2.0, 1.0, 1.0)
        assert result.sse <= 1e-20

    def test_interaction_model(self, d1):
        result = fit(d1, spec(UNITY, X, Y, X * Y))
        assert result.coefficients == pytest.approx(
            (-1.0 / 7.0, 5.0 / 7.0, -1.0 / 7.0), rel=1e-12)
        assert result.denominator == 49.0
        assert result.sse <= 1e-18

    def test_explicit_three_regressors_vs_oracle(self, d2):
        result = fit(d2, spec(Y, UNITY, X, Z))
        cols = [np.ones(3), d2.column("x"), d2.column("z")]
        expected = ols_solve(cols, d2.column("y"))
        assert result.coefficients == pytest.approx(tuple(expected), rel=1e-10)


class TestSingularSystems:
    def test_identical_columns_implicit(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        with pytest.raises(SingularSystemError) as excinfo:
            fit(data, spec(UNITY, X, Y))
        assert excinfo.value.determinant == 0.0

    def test_identical_columns_explicit_is_fine(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        result = fit(data, spec(Y, UNITY, X))
        assert result.coefficients == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_exact_scaling_collinearity(self):
        x = np.array([1.0, 1.0 + 1e-8, 2.0])
        data = Dataset({"x": x, "y": 2.0 * x})
        with pytest.raises(SingularSystemError):
            fit(data, spec(UNITY, X, Y))

    def test_collinear_three_regressors(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0],
                        "z": [1.0, 1.0, 2.0]})  # z = y - x
        with pytest.raises(SingularSystemError) as excinfo:
            fit(data, spec(UNITY, X, Y, Z))
        assert excinfo.value.determinant == 0.0

    def test_near_singular_consistent_system_flagged(self):
        # y is x plus a 1e-7 bump on one row; the implicit system is almost
        # rank one, but its exact determinant is not 0 and (1, 0) is the
        # exact solution.
        data = Dataset({"x": [1.0, 1.0], "y": [1.0, 1.0 + 1e-7]})
        result = fit(data, spec(UNITY, X, Y))
        assert result.coefficients == (1.0, 0.0)


class TestRotations:
    def test_d1_sweep(self, d1):
        rotations = fit_all_rotations(d1, [UNITY, X, Y])
        assert [r.response.label for r in rotations] == ["x", "y", "1"]
        by_label = {r.response.label: r.fit for r in rotations}
        assert by_label["y"].coefficients == pytest.approx((1.0 / 3.0, 1.5),
                                                           rel=1e-12)
        assert by_label["x"].coefficients == pytest.approx(
            (-1.0 / 7.0, 9.0 / 14.0), rel=1e-12)
        assert by_label["1"].coefficients == pytest.approx(
            (-2.0 / 3.0, 2.0 / 3.0), rel=1e-12)

    def test_d2_sweep_against_oracle(self, d2):
        rotations = fit_all_rotations(d2, [UNITY, X, Y, Z])
        assert len(rotations) == 4
        assert rotations[-1].response == UNITY
        names = {"x": d2.column("x"), "y": d2.column("y"), "z": d2.column("z"),
                 "1": np.ones(3)}
        for rotation in rotations:
            regs = [d for d in (UNITY, X, Y, Z) if d != rotation.response]
            cols = [names[d.label] for d in regs]
            expected = ols_solve(cols, names[rotation.response.label])
            assert rotation.fit.coefficients == pytest.approx(tuple(expected),
                                                              rel=1e-9)

    def test_duplicate_directions_rejected(self, d1):
        with pytest.raises(ValueError):
            fit_all_rotations(d1, [UNITY, X, X])

    def test_direction_count_enforced(self, d1):
        with pytest.raises(ValueError):
            fit_all_rotations(d1, [UNITY, X])

    def test_unity_required(self, d2):
        with pytest.raises(ValueError):
            fit_all_rotations(d2, [X, Y, Z])

    def test_failed_rotation_carried_in_place(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        rotations = fit_all_rotations(data, [UNITY, X, Y])
        by_label = {r.response.label: r for r in rotations}
        assert by_label["y"].ok
        assert not by_label["1"].ok
        assert isinstance(by_label["1"].error, SingularSystemError)

    def test_replication_invariance(self, d2):
        base = fit_all_rotations(d2, [UNITY, X, Y, Z])
        for k in (2, 3, 5):
            repeated = fit_all_rotations(replicate(d2, k), [UNITY, X, Y, Z])
            for a, b in zip(base, repeated):
                assert b.fit.coefficients == pytest.approx(a.fit.coefficients,
                                                           rel=1e-12)

    def test_unknown_column_raises(self, d1):
        with pytest.raises(ColumnNotFoundError):
            fit_all_rotations(d1, [UNITY, X, Direction("nope")])

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            n_cols = int(rng.integers(2, 4))
            data = random_dataset(rng, n_columns=n_cols)
            dirs = [UNITY] + [Direction(c) for c in data.names]
            names = {"1": np.ones(data.n)}
            names.update({c: data.column(c) for c in data.names})
            for rotation in fit_all_rotations(data, dirs):
                regs = [d for d in dirs if d != rotation.response]
                cols = [names[d.label] for d in regs]
                expected = ols_solve(cols, names[rotation.response.label])
                assert rotation.fit.coefficients == pytest.approx(
                    tuple(expected), rel=1e-9)


def assert_same_fit(a, b, data):
    """Field-for-field exact equality of two FitResults, and of their
    predictions on ``data``."""
    assert a.spec == b.spec
    assert a.coefficients == b.coefficients
    assert a.denominator == b.denominator
    assert a.numerators == b.numerators
    assert a.sse == b.sse
    assert np.array_equal(a.predict(data), b.predict(data))


SHARED_SPECS = (
    spec(Y, UNITY, X),
    spec(UNITY, X, Y),
    spec(UNITY, X, Y, X * Y),
    spec(Y, UNITY, X, Z),
)


class TestSharedLattice:
    def test_solve_matches_fit(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            data = random_dataset(rng, n_columns=3)
            lat = build_lattice(data, [UNITY, X, Y, Z, X * Y])
            for model in SHARED_SPECS:
                result = solve(lat, model)
                assert_same_fit(result, fit(data, model), data)
                exact = ExactData({c: data.column(c) for c in data.names})
                assert result.sse == rounded(exact.sse(
                    model.response.factors,
                    [d.factors for d in model.regressors],
                    result.coefficients))

    def test_rotations_and_catalog_match_dataset(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n_cols = int(rng.integers(2, 4))
            data = random_dataset(rng, n_columns=n_cols)
            dirs = [UNITY] + [Direction(c) for c in data.names]
            lat = build_lattice(data, dirs)
            for a, b in zip(fit_all_rotations(lat, dirs),
                            fit_all_rotations(data, dirs), strict=True):
                assert a.response == b.response
                assert_same_fit(a.fit, b.fit, data)
            shared = measure_catalog(lat, list(data.names))
            fresh = measure_catalog(data, list(data.names))
            assert list(shared.items()) == list(fresh.items())

    def test_singular_rotation_carried_on_shared_lattice(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
        lat = build_lattice(data, [UNITY, X, Y])
        by_label = {r.response.label: r
                    for r in fit_all_rotations(lat, [UNITY, X, Y])}
        assert by_label["y"].ok
        assert isinstance(by_label["1"].error, SingularSystemError)

    def test_missing_direction_raises(self, d2):
        lat = build_lattice(d2, [UNITY, X, Y])
        # Each names the first pair it lacks, reading its matrix row by row.
        missing = r"^vertex \({}, z\) is not cached; rebuild the lattice"
        with pytest.raises(MissingVertexError, match=missing.format("y")):
            solve(lat, spec(Y, UNITY, Z))
        with pytest.raises(MissingVertexError, match=missing.format("1")):
            fit_all_rotations(lat, [UNITY, X, Z])
        with pytest.raises(MissingVertexError, match=missing.format("1")):
            measure_catalog(lat, ["x", "y", "z"])


class TestModelProperties:
    def test_slope_correlation_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            data = random_dataset(rng)
            lat = build_lattice(data, [UNITY, X, Y])
            beta1 = fit(data, spec(Y, UNITY, X)).coefficients[1]
            gamma1 = fit(data, spec(X, UNITY, Y)).coefficients[1]
            dxy = form_determinant(lat, DeterminantKind.covariance(X, Y))
            dxx = form_determinant(lat, DeterminantKind.variance(X))
            dyy = form_determinant(lat, DeterminantKind.variance(Y))
            assert math.isclose(beta1 * gamma1, dxy * dxy / (dxx * dyy),
                                rel_tol=1e-12, abs_tol=1e-12)

    def test_exact_implicit_model_recovered(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            alpha1 = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
            alpha2 = rng.uniform(0.2, 2.0)
            n = int(rng.integers(4, 40))
            x = rng.normal(3.0, 1.0, n)
            y = (1.0 - alpha1 * x) / alpha2
            data = Dataset({"x": x, "y": y})
            result = fit(data, spec(UNITY, X, Y))
            assert result.coefficients == pytest.approx((alpha1, alpha2),
                                                        rel=1e-10)

    def test_nested_sse_monotone(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            data = random_dataset(rng, n_columns=3)
            sse1 = fit(data, spec(Y, UNITY)).sse
            sse2 = fit(data, spec(Y, UNITY, X)).sse
            sse3 = fit(data, spec(Y, UNITY, X, Z)).sse
            assert sse2 <= sse1 + 1e-9 * (1.0 + sse1)
            assert sse3 <= sse2 + 1e-9 * (1.0 + sse2)


class TestResidualReport:
    def test_simple_line(self, d1):
        result = fit(d1, spec(Y, UNITY, X))
        report = residual_report(result, d1)
        assert list(report) == ["model", "residuals", "sse"]
        assert report["residuals"] == pytest.approx(
            (1.0 / 6.0, -1.0 / 3.0, 1.0 / 6.0), rel=1e-12)
        assert report["sse"] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_exact_fit_residuals_vanish(self, d2):
        result = fit(d2, spec(UNITY, X, Y, Z))
        report = residual_report(result, d2)
        assert list(report) == ["model", "residuals", "sse", "system_error"]
        assert max(abs(r) for r in report["residuals"]) <= 1e-10
        assert report["system_error"] <= 1e-18

    def test_constant_response_zero_sse(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [4.0, 4.0, 4.0]})
        result = fit(data, spec(Y, UNITY))
        report = residual_report(result, data)
        assert report["sse"] == 0.0

    def test_sse_outside_float_range_raises(self):
        # Each squared residual overflows; FitResult.sse names the same value.
        data = Dataset({"x": [1e200, 2e200, 3e200],
                        "y": [2e200, 3.5e200, 6e200]})
        result = fit(data, spec(Y, UNITY, X))
        message = "SSE of 'y = 1 + x' is outside the float range"
        with pytest.raises(NonFiniteResultError) as info:
            residual_report(result, data)
        assert str(info.value) == message
        with pytest.raises(NonFiniteResultError) as info:
            result.sse
        assert str(info.value) == message

    def test_matches_per_row_sums(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            data = random_dataset(rng, n_columns=3)
            for model in SHARED_SPECS:
                result = fit(data, model)
                report = residual_report(result, data)
                preds = result.predict(data)
                residuals = data.evaluate(model.response) - preds
                assert report["residuals"] == [float(r) for r in residuals]
                assert report["sse"] == math.fsum(r * r for r in residuals)
                if model.is_non_response:
                    # (1 - p) ** 2 goes through pow(), which need not
                    # round like r * r; the sums agree to a few ulps.
                    assert report["system_error"] == report["sse"]
                    assert math.isclose(
                        report["system_error"],
                        math.fsum((1.0 - p) ** 2 for p in preds),
                        rel_tol=4 * 2.0 ** -52)
