"""The rotation pyramid is one cofactor matrix.

Over the directions D = (1, x, y, ...) let G be the vertex matrix and C
its cofactor matrix.  The fit with response r has denominator C[r][r]
and numerators -C[r][j], and over (1, x, y) the six catalog
determinants are the six distinct cofactors.  Every check here is an
exact ``==`` against permutation-sum determinants of exact vertices.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latreg
from latreg import (Dataset, Lattice, ModelSpec,
                    NonFiniteResultError, UNITY, build_lattice,
                    fit_all_rotations, measure_catalog, solve)

from conftest import X, Y, Z, random_dataset
from oracles import ExactData, det_permutation_sum, rounded

#: Each two-column catalog delta as (sign, i, j): sign times the
#: cofactor C[i][j] of G over (1, x, y).
COFACTOR_OF = {
    "delta_xxyy": (1, 0, 0),
    "delta_11yy": (1, 1, 1),
    "delta_11xx": (1, 2, 2),
    "delta_11xy": (-1, 1, 2),
    "delta_1xyy": (-1, 0, 1),
    "delta_1yxx": (-1, 0, 2),
}


def exact(pair):
    value, exponent = pair
    return Fraction(value) * Fraction(2) ** exponent


def gram(oracle, dirs):
    return [[oracle.vertex(a.factors, b.factors) for b in dirs] for a in dirs]


def cofactor(matrix, i, j):
    rest = range(len(matrix))
    return (-1) ** (i + j) * det_permutation_sum(
        [[matrix[r][c] for c in rest if c != j] for r in rest if r != i])


def oracle_of(data):
    return ExactData({name: data.column(name) for name in data.names})


def catalog_expectations(data):
    """The two-column catalog's deltas and sigmas over (x, y) from the
    cofactors of the exact G, each rounded once (None out of range)."""
    oracle = oracle_of(data)
    g = gram(oracle, [UNITY, X, Y])
    out = {}
    for key, (sign, i, j) in COFACTOR_OF.items():
        delta = sign * cofactor(g, i, j)
        out[key] = rounded(delta)
        out["sigma_" + key[len("delta_"):]] = rounded(delta / g[0][0] ** 2)
    out.update({f"v_{a.label}{b.label}": rounded(g[i][j])
                for i, a in enumerate([UNITY, X, Y])
                for j, b in enumerate([UNITY, X, Y]) if i <= j})
    return out


def assert_rotations_match_cramer(data, dirs):
    """Every rotation's exact denominator and numerators equal the
    permutation sums of its Cramer matrices; a rotation is singular
    exactly when its denominator is 0."""
    oracle = oracle_of(data)
    rotations = fit_all_rotations(build_lattice(data, dirs), dirs)
    assert [r.response for r in rotations] == [d for d in dirs if d != UNITY] + [UNITY]
    for rotation in rotations:
        regs = [d for d in dirs if d != rotation.response]
        den = det_permutation_sum(gram(oracle, regs))
        if not rotation.ok:
            assert den == 0
            continue
        result = rotation.fit
        assert exact(result.exact_denominator) == den
        for i, num in enumerate(result.exact_numerators):
            cramer = [[oracle.vertex(a.factors, b.factors)
                       for b in regs[:i] + [rotation.response] + regs[i + 1:]]
                      for a in regs]
            assert exact(num) == det_permutation_sum(cramer)
    return rotations


class TestCatalogIsTheCofactors:
    @pytest.mark.parametrize("seed", range(6))
    def test_two_column_deltas_are_signed_cofactors(self, seed):
        data = random_dataset(np.random.default_rng([seed, 61]))
        catalog = measure_catalog(data, ["x", "y"])
        assert {k for k in catalog if k.startswith("delta_")} == set(COFACTOR_OF)
        expected = catalog_expectations(data)
        for key in COFACTOR_OF:
            assert catalog[key] == expected[key]

    def test_desk_fixture(self, d1):
        catalog = measure_catalog(d1, ["x", "y"])
        expected = catalog_expectations(d1)
        assert {k: catalog[k] for k in expected} == expected

    def test_form1_is_the_unity_cofactor(self, d2):
        data = random_dataset(np.random.default_rng(67), n_columns=3)
        for source in (d2, data):
            g = gram(oracle_of(source), [UNITY, X, Y, Z])
            catalog = measure_catalog(source, ["x", "y", "z"])
            assert catalog["delta_xxyyzz"] == rounded(cofactor(g, 0, 0))


class TestRotationsAreCofactorRows:
    def test_three_directions(self, d1):
        rotations = assert_rotations_match_cramer(d1, [UNITY, X, Y])
        assert all(r.ok for r in rotations)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_three_and_four_directions(self, seed):
        rng = np.random.default_rng([seed, 71])
        data = random_dataset(rng, n_columns=3)
        assert_rotations_match_cramer(data, [UNITY, X, Y])
        assert_rotations_match_cramer(data, [X, UNITY, Z, Y])

    def test_singular_matrix_still_fits_every_rotation(self, d1):
        # Three rows over four directions: det G = 0, yet each rotation's
        # three regressors are independent.
        dirs = [UNITY, X, Y, X * Y]
        assert det_permutation_sum(gram(oracle_of(d1), dirs)) == 0
        rotations = assert_rotations_match_cramer(d1, dirs)
        assert all(r.ok for r in rotations)

    def test_singular_rotation_is_a_zero_diagonal(self, d2):
        data = Dataset({"x": [1.0, 2.0, 3.0, 4.0], "y": [2.0, 4.0, 6.0, 8.0]})
        rotations = assert_rotations_match_cramer(data, [UNITY, X, Y])
        assert [r.ok for r in rotations] == [True, True, False]
        assert_rotations_match_cramer(d2, [UNITY, X, Y, Z])

    def test_solve_reads_row_zero_in_any_order(self, d2):
        lat = build_lattice(d2, [UNITY, X, Y, Z])
        for spec in (ModelSpec(Y, (X, UNITY)), ModelSpec(UNITY, (Z, X)),
                     ModelSpec(X, (Z, UNITY, Y))):
            oracle = oracle_of(d2)
            regs = list(spec.regressors)
            result = solve(lat, spec)
            assert exact(result.exact_denominator) == det_permutation_sum(
                gram(oracle, regs))
            for i, num in enumerate(result.exact_numerators):
                cols = regs[:i] + [spec.response] + regs[i + 1:]
                assert exact(num) == det_permutation_sum(
                    [[oracle.vertex(a.factors, b.factors) for b in cols]
                     for a in regs])


edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, 1e300, -1e300,
                        1.0, -3.0, 0.5])
finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)
subnormal = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e-307, max_value=1e-307)
values = st.one_of(edge, finite, subnormal)


class TestPyramidOverExtremes:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(*(st.lists(values, min_size=n, max_size=n)
                              for _ in range(3)))))
    def test_rotations_and_catalog(self, columns):
        data = Dataset(dict(zip("xyz", columns)))
        assert_rotations_match_cramer(data, [UNITY, X, Y])
        assert_rotations_match_cramer(data, [UNITY, X, Y, Z])
        assert_rotations_match_cramer(data, [UNITY, X, X * Y])
        expected = catalog_expectations(data)
        if None in expected.values():
            with pytest.raises(NonFiniteResultError):
                measure_catalog(data, ["x", "y"])
        else:
            catalog = measure_catalog(data, ["x", "y"])
            assert {k: catalog[k] for k in expected} == expected


class TestOneMatrixRead:
    @pytest.mark.parametrize("call", [
        lambda lat: solve(lat, ModelSpec(Y, (UNITY, X, Z))),
        lambda lat: fit_all_rotations(lat, [UNITY, X, Y, Z]),
        lambda lat: measure_catalog(lat, ["x", "y", "z"]),
    ], ids=["solve", "fit_all_rotations", "measure_catalog"])
    def test_each_call_reads_the_matrix_once(self, monkeypatch, d2, call):
        lat = build_lattice(d2, [UNITY, X, Y, Z])
        reads = []
        original = Lattice.matrix

        def counting(self, directions):
            reads.append(tuple(directions))
            return original(self, directions)

        monkeypatch.setattr(Lattice, "matrix", counting)
        call(lat)
        assert len(reads) == 1
        assert set(reads[0]) == {UNITY, X, Y, Z}

    def test_minors_are_closed_forms_up_to_three(self):
        m = [[2, 3, 5, 7], [3, 11, 13, 17], [5, 13, 19, 23], [7, 17, 23, 29]]
        for size in (1, 2, 3):
            rows, cols = range(size), range(4 - size, 4)
            assert latreg.lattice.minor(m, rows, cols) == det_permutation_sum(
                [[m[r][c] for c in cols] for r in rows])
        with pytest.raises(ValueError, match="1x1, 2x2 or 3x3"):
            latreg.lattice.minor(m, range(4), range(4))
        with pytest.raises(ValueError, match="1x1, 2x2 or 3x3"):
            latreg.lattice.minor(m, (0, 1), (0,))
