import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latreg.lattice
from latreg import (ColumnNotFoundError, Dataset, DeterminantKind, Direction,
                    EmptyDataError, Lattice, MissingVertexError, UNITY,
                    build_lattice, det2, det3_general, form_determinant, join,
                    measure_catalog, scaled_sigma)

from conftest import X, Y, Z, random_dataset, replicate
from oracles import det_permutation_sum, plain_dot


def lattice_for(data, *directions):
    return build_lattice(data, [UNITY, *directions])


class TestDirection:
    def test_multiset_equality(self):
        assert Direction("x", "y") == Direction("y", "x")
        assert Direction("x") != Direction("y")
        assert Direction() == UNITY

    def test_unity_properties(self):
        assert UNITY.is_unity
        assert UNITY.level == 0
        assert UNITY.label == "1"

    def test_product_and_powers(self):
        assert X * Y == Direction("x", "y")
        assert (X * X).factors == ("x", "x")
        assert (X * Y).label == "x*y"

    def test_hashable(self):
        assert len({X, Direction("x"), Y}) == 2


class TestDataset:
    def test_rejects_no_columns(self):
        with pytest.raises(EmptyDataError):
            Dataset({})

    def test_rejects_no_rows(self):
        with pytest.raises(EmptyDataError):
            Dataset({"x": []})

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Dataset({"x": [1.0, 2.0], "y": [1.0]})

    def test_rejects_two_dimensional_column(self):
        with pytest.raises(ValueError,
                           match="^column 'x' is not one-dimensional$"):
            Dataset({"x": [[1.0, 2.0], [3.0, 4.0]]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset({"x": [1.0, math.nan]})
        with pytest.raises(ValueError):
            Dataset({"x": [1.0, math.inf]})

    def test_columns_read_only(self, d1):
        with pytest.raises(ValueError):
            d1.column("x")[0] = 99.0

    def test_unknown_column(self, d1):
        with pytest.raises(ColumnNotFoundError):
            d1.column("w")

    def test_evaluate_directions(self, d1):
        assert d1.evaluate(UNITY).tolist() == [1.0, 1.0, 1.0]
        assert d1.evaluate(X * Y).tolist() == [2.0, 6.0, 15.0]

    def test_evaluate_single_factor_is_the_column(self, d1):
        # No copy per direction while a lattice is built.
        assert d1.evaluate(X) is d1.column("x")
        assert d1.evaluate(X * X * Y).tolist() == [2.0, 12.0, 45.0]

    def test_single_row_accepted(self):
        data = Dataset({"x": [7.0]})
        assert data.n == 1


class TestVertices:
    def test_unity_vertex_is_n(self, d1):
        lat = lattice_for(d1, X, Y)
        assert lat.vertex(UNITY, UNITY) == 3.0

    def test_hand_sums(self, d1):
        lat = lattice_for(d1, X, Y)
        assert lat.vertex(UNITY, X) == 6.0
        assert lat.vertex(UNITY, Y) == 10.0
        assert lat.vertex(X, X) == 14.0
        assert lat.vertex(X, Y) == 23.0
        assert lat.vertex(Y, Y) == 38.0

    def test_symmetry_exact(self, d1):
        lat = lattice_for(d1, X, Y)
        for a in (UNITY, X, Y):
            for b in (UNITY, X, Y):
                assert lat.vertex(a, b) == lat.vertex(b, a)

    def test_interaction_vertices(self, d1):
        xy = X * Y
        lat = lattice_for(d1, X, Y, xy)
        assert lat.vertex(UNITY, xy) == 23.0
        assert lat.vertex(xy, xy) == 265.0
        assert lat.vertex(X, xy) == 59.0

    def test_unknown_column_rejected(self, d1):
        with pytest.raises(ColumnNotFoundError):
            lattice_for(d1, Direction("w"))

    def test_unity_required(self, d1):
        with pytest.raises(ValueError):
            build_lattice(d1, [X, Y])
        with pytest.raises(ValueError):
            build_lattice(d1, [])

    @pytest.mark.parametrize("n", [1, 7, 2 * latreg.lattice._BLOCK_ROWS + 3])
    def test_unity_only_lattice(self, n):
        # No column is read, yet the blocks still hold n rows of unity.
        table = np.arange(2.0 * n).reshape(n, 2)
        data = Dataset({"x": table[:, 0], "y": table[:, 1]})
        chunks = iter(np.array_split(table, 3))
        for lat in (build_lattice(data, [UNITY]),
                    latreg.lattice.lattice_of_rows(chunks, ["x", "y"], [UNITY])):
            assert lat.directions == (UNITY,)
            assert lat.exact(UNITY, UNITY) == n
            assert lat.scale == 0
            assert lat.vertex(UNITY, UNITY) == float(n)

    def test_duplicates_dropped(self, d1):
        lat = build_lattice(d1, [UNITY, X, X, Y])
        assert lat.directions == (UNITY, X, Y)

    def test_vertex_matches_plain_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            data = random_dataset(rng)
            lat = lattice_for(data, X, Y)
            expected = plain_dot(data.column("x"), data.column("y"))
            assert math.isclose(lat.vertex(X, Y), expected, rel_tol=1e-12)


class TestJoin:
    def test_two_vertex_join(self, d1):
        lat = lattice_for(d1, X, Y)
        assert join(lat, [(UNITY, UNITY), (X, X)]) == 42.0

    def test_unity_join_is_n_squared(self, d1):
        lat = lattice_for(d1, X, Y)
        assert join(lat, [(UNITY, UNITY), (UNITY, UNITY)]) == 9.0

    def test_three_vertex_join(self, d1):
        lat = lattice_for(d1, X, Y)
        assert join(lat, [(UNITY, X), (UNITY, Y), (UNITY, UNITY)]) == 180.0

    def test_wrong_arity(self, d1):
        lat = lattice_for(d1, X, Y)
        with pytest.raises(ValueError):
            join(lat, [(UNITY, UNITY)])
        with pytest.raises(ValueError):
            join(lat, [(UNITY, UNITY)] * 4)

    def test_missing_vertex(self, d1):
        lat = lattice_for(d1, X)
        with pytest.raises(MissingVertexError):
            join(lat, [(UNITY, UNITY), (X, Y)])


class TestDet2:
    def test_d1_fixtures(self, d1):
        lat = lattice_for(d1, X, Y)
        assert det2(lat, UNITY, UNITY, X, X) == 6.0
        assert det2(lat, UNITY, UNITY, Y, Y) == 14.0
        assert det2(lat, UNITY, UNITY, X, Y) == 9.0
        assert det2(lat, X, X, Y, Y) == 3.0
        assert det2(lat, UNITY, Y, X, X) == 2.0
        assert det2(lat, UNITY, X, Y, Y) == -2.0

    def test_constant_column_zero_variance(self):
        data = Dataset({"x": [4.0, 4.0, 4.0, 4.0]})
        lat = lattice_for(data, X)
        assert det2(lat, UNITY, UNITY, X, X) == 0.0

    def test_unity_reversal_negates_covariance(self, d1):
        lat = lattice_for(d1, X, Y)
        assert det2(lat, UNITY, Y, X, UNITY) == -det2(lat, UNITY, UNITY, X, Y)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            data = random_dataset(rng)
            lat = lattice_for(data, X, Y)
            forward = det2(lat, UNITY, X, Y, Y)
            backward = det2(lat, UNITY, Y, Y, X)
            assert math.isclose(forward, -backward, rel_tol=1e-12, abs_tol=1e-12)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                    min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_cauchy_schwarz(self, values):
        data = Dataset({"x": values})
        lat = lattice_for(data, X)
        delta = det2(lat, UNITY, UNITY, X, X)
        scale = lat.vertex(UNITY, UNITY) * lat.vertex(X, X)
        assert delta >= -1e-9 * scale

    def test_covariance_inequality_random(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            data = random_dataset(rng)
            lat = lattice_for(data, X, Y)
            dxx = det2(lat, UNITY, UNITY, X, X)
            dyy = det2(lat, UNITY, UNITY, Y, Y)
            dxy = det2(lat, UNITY, UNITY, X, Y)
            assert dxx >= 0.0
            assert dyy >= 0.0
            assert det2(lat, X, X, Y, Y) >= -1e-9 * lat.vertex(X, X) * lat.vertex(Y, Y)
            assert dxx * dyy >= dxy * dxy - 1e-9 * abs(dxx * dyy)


class TestDet3:
    def test_d2_hand_value(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        assert det3_general(lat, (X, Y, Z), (X, Y, Z)) == 1.0

    def test_repeated_row_is_zero(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        assert det3_general(lat, (X, X, Z), (X, Y, Z)) == 0.0
        assert det3_general(lat, (X, Y, Z), (Y, Y, Z)) == 0.0

    def test_collinear_columns_singular(self):
        data = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0],
                        "z": [1.0, 1.0, 2.0]})  # z = y - x
        lat = lattice_for(data, X, Y, Z)
        assert det3_general(lat, (X, Y, Z), (X, Y, Z)) == 0.0

    def test_repeated_rows_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            data = random_dataset(rng, n_columns=3)
            lat = lattice_for(data, X, Y, Z)
            value = det3_general(lat, (X, Y, Y), (X, Y, Z))
            rows = [[lat.vertex(r, c) for c in (X, Y, Z)] for r in (X, Y, Y)]
            bound = 1e-10 * math.prod(math.hypot(*row) for row in rows)
            assert abs(value) <= bound

    def test_wrong_arity(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        with pytest.raises(ValueError):
            det3_general(lat, (X, Y), (X, Y, Z))


class TestDeterminantKind:
    def test_equal_subscripts_are_one_kind(self):
        variance = DeterminantKind.variance(X)
        general = DeterminantKind.general2(UNITY, UNITY, X, X)
        assert variance == general
        assert hash(variance) == hash(general)
        assert len({DeterminantKind.form1(X, Y, Z),
                    DeterminantKind.form2(X, Y, Z, X)}) == 1
        assert DeterminantKind.covariance(X, Y) != DeterminantKind.covariance(Y, X)


class TestFormDeterminants:
    def test_form1_fixture(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        assert form_determinant(lat, DeterminantKind.form1(X, Y, Z)) == 1.0

    def test_form2_reduces_to_form1(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        form1 = form_determinant(lat, DeterminantKind.form1(X, Y, Z))
        form2 = form_determinant(lat, DeterminantKind.form2(X, Y, Z, X))
        assert form1 == form2

    def test_form2_unity_fixture(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        assert form_determinant(lat, DeterminantKind.form2(X, Y, Z, UNITY)) == -2.0

    def test_named_kinds_match_det2(self, d1):
        lat = lattice_for(d1, X, Y)
        assert form_determinant(lat, DeterminantKind.variance(X)) == 6.0
        assert form_determinant(lat, DeterminantKind.covariance(X, Y)) == 9.0
        assert form_determinant(lat, DeterminantKind.internal_covariance(Y, X)) == 2.0
        assert form_determinant(lat, DeterminantKind.internal_covariance(X, Y)) == -2.0
        assert form_determinant(lat, DeterminantKind.base_variance(X, Y)) == 3.0
        assert form_determinant(
            lat, DeterminantKind.general2(UNITY, UNITY, X, Y)) == 9.0

    def test_form1_against_permutation_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            data = random_dataset(rng, n_columns=3)
            lat = lattice_for(data, X, Y, Z)
            cols = [data.column(name) for name in ("x", "y", "z")]
            matrix = [[plain_dot(u, v) for v in cols] for u in cols]
            expected = det_permutation_sum(matrix)
            value = form_determinant(lat, DeterminantKind.form1(X, Y, Z))
            assert math.isclose(value, expected, rel_tol=1e-10, abs_tol=1e-10)

    def test_unknown_kind_rejected(self, d1):
        lat = lattice_for(d1, X, Y)
        with pytest.raises(ValueError):
            form_determinant(lat, DeterminantKind((X,)))


class TestScaledSigma:
    def test_fixtures(self, d1):
        lat = lattice_for(d1, X, Y)
        assert scaled_sigma(lat, DeterminantKind.variance(X)) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert scaled_sigma(lat, DeterminantKind.covariance(X, Y)) == 1.0

    def test_matches_population_variance(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            data = random_dataset(rng)
            lat = lattice_for(data, X)
            sigma = scaled_sigma(lat, DeterminantKind.variance(X))
            assert math.isclose(sigma, float(np.var(data.column("x"))),
                                rel_tol=1e-9, abs_tol=1e-12)

    def test_constant_column(self):
        data = Dataset({"x": [5.0, 5.0]})
        lat = lattice_for(data, X)
        assert scaled_sigma(lat, DeterminantKind.variance(X)) == 0.0

    def test_rejects_form_kinds(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        with pytest.raises(ValueError, match="determinant delta_xxyyzz$"):
            scaled_sigma(lat, DeterminantKind.form1(X, Y, Z))

    def test_n_is_read_from_the_lattice(self):
        n = 1001
        data = Dataset({"x": np.arange(n, dtype=float) % 7})
        lat = lattice_for(data, X)
        rowless = Lattice(lat.directions, lat._vertices, lat.scale)
        kind = DeterminantKind.variance(X)
        assert scaled_sigma(rowless, kind) == (form_determinant(lat, kind)
                                               / float(n * n))
        assert repr(rowless) == repr(lat) == f"Lattice(n={n}, directions=[1, x])"


class TestReplicationScaling:
    def test_vertex_det2_det3_scale(self, d2):
        lat1 = lattice_for(d2, X, Y, Z)
        for k in (2, 3, 5):
            latk = lattice_for(replicate(d2, k), X, Y, Z)
            assert math.isclose(latk.vertex(X, Y), k * lat1.vertex(X, Y),
                                rel_tol=1e-12)
            assert math.isclose(
                det2(latk, UNITY, UNITY, X, Y),
                k * k * det2(lat1, UNITY, UNITY, X, Y), rel_tol=1e-12)
            assert math.isclose(
                det3_general(latk, (X, Y, Z), (X, Y, Z)),
                k ** 3 * det3_general(lat1, (X, Y, Z), (X, Y, Z)),
                rel_tol=1e-12)


class TestMeasureCatalog:
    def test_d1_values(self, d1):
        catalog = measure_catalog(d1, ["x", "y"])
        assert catalog["v_11"] == 3.0
        assert catalog["v_1x"] == 6.0
        assert catalog["v_xy"] == 23.0
        assert catalog["delta_11xx"] == 6.0
        assert catalog["delta_11yy"] == 14.0
        assert catalog["delta_11xy"] == 9.0
        assert catalog["delta_1yxx"] == 2.0
        assert catalog["delta_1xyy"] == -2.0
        assert catalog["delta_xxyy"] == 3.0
        assert catalog["sigma_11xx"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert catalog["sigma_11xy"] == 1.0

    def test_three_columns_include_form1(self, d2):
        catalog = measure_catalog(d2, ["x", "y", "z"])
        assert catalog["delta_xxyyzz"] == 1.0
        assert "delta_11zz" in catalog
        assert "delta_yyzz" in catalog

    def test_delta_keys_spell_their_subscripts(self):
        data = random_dataset(np.random.default_rng(29), n_columns=3)
        lat = lattice_for(data, X, Y, Z)
        catalog = measure_catalog(lat, ["x", "y", "z"])
        deltas = [key for key in catalog if key.startswith("delta_")]
        assert len(deltas) == 16
        for key in deltas:
            label = key[len("delta_"):]
            subscripts = tuple(UNITY if s == "1" else Direction(s)
                               for s in label)
            kind = DeterminantKind(subscripts)
            assert catalog[key] == form_determinant(lat, kind)
            if len(subscripts) == 4:
                assert catalog["sigma_" + label] == scaled_sigma(lat, kind)

    @pytest.mark.parametrize("columns, calls", [(["x", "y"], 6),
                                                (["x", "y", "z"], 16)],
                             ids=["2-columns", "3-columns"])
    def test_each_determinant_evaluated_once(self, monkeypatch, d2, columns,
                                             calls):
        # Each minor of the vertex matrix serves both its delta_ and
        # sigma_ entry.
        matrices = []
        original = latreg.lattice.minor

        def counting(m, rows, cols):
            matrices.append((tuple(rows), tuple(cols)))
            return original(m, rows, cols)

        monkeypatch.setattr(latreg.lattice, "minor", counting)
        catalog = measure_catalog(d2, columns)
        assert len(matrices) == len(set(matrices)) == calls
        assert sum(key.startswith("delta_") for key in catalog) == calls

    def test_catalog_reads_only_the_lattice(self, d2):
        lat = lattice_for(d2, X, Y, Z)
        rowless = Lattice(lat.directions, lat._vertices, lat.scale)
        assert (list(measure_catalog(rowless, ["x", "y", "z"]).items())
                == list(measure_catalog(lat, ["x", "y", "z"]).items()))

    def test_column_named_like_unity_rejected(self):
        # Unity's label is "1", so both V(1, 1) and V(c, c) of a column
        # named "1" would be the key v_11.
        data = Dataset({"1": [1.0, 2.0, 4.0], "x": [2.0, 3.0, 5.0]})
        with pytest.raises(ValueError, match="'v_11'"):
            measure_catalog(data, ["1", "x"])

    def test_constant_columns_zero_variances(self):
        data = Dataset({"x": [2.0, 2.0, 2.0], "y": [7.0, 7.0, 7.0]})
        catalog = measure_catalog(data, ["x", "y"])
        for key in ("delta_11xx", "delta_11yy", "delta_11xy", "delta_xxyy"):
            assert catalog[key] == 0.0

    def test_column_count_enforced(self, d1):
        with pytest.raises(ValueError):
            measure_catalog(d1, ["x"])
        with pytest.raises(ValueError):
            measure_catalog(d1, ["x", "x"])
