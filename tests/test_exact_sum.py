"""Every value the lattice gives is the exact value rounded once.

The reference is the exact oracle in ``oracles.py``, which holds each
float as an integer times a power of two and never rounds.  A plain
column sum V(1, x) is also compared with math.fsum, which rounds the
same exact sum once: the two agree wherever math.fsum returns a value.
A value outside the float range must raise NonFiniteResultError naming
it, and only then.
"""

import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latreg.lattice as lattice
from latreg import (Dataset, Direction, EmptyDataError, MeanRequest, ModelSpec,
                    NonFiniteResultError, SingularSystemError, UNITY,
                    build_lattice, fit, fit_all_rotations, mean_operator,
                    measure_catalog, parse_model, solve, weighted_mean)
from latreg.cli import main

from conftest import X, Y, Z
from oracles import ExactData, rounded


def same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def kernel(block_rows=4):
    """Small blocks, so that short columns cover several blocks, each
    with its own exponents, and a remainder."""
    return mock.patch.object(lattice, "_BLOCK_ROWS", block_rows)


def assert_value(compute, exact: Fraction, name: str):
    """``compute()`` is ``exact`` rounded once, or raises naming ``name``
    when that is outside the float range."""
    expected = rounded(exact)
    if expected is None:
        with pytest.raises(NonFiniteResultError) as info:
            compute()
        assert str(info.value) == f"{name} is outside the float range"
    else:
        assert same_bits(compute(), expected), name


def column_sum(values) -> float:
    """V(1, x) of one column, through the lattice."""
    lat = build_lattice(Dataset({"x": values}), [UNITY, X])
    return lat.vertex(UNITY, X)


def assert_exact_sum(values):
    values = np.asarray(values, dtype=float)
    exact = ExactData({"x": values}).vertex((), ("x",))
    assert_value(lambda: column_sum(values), exact, "vertex V(1, x)")
    try:
        reference = math.fsum(values.tolist())
    except OverflowError:
        return
    if math.isfinite(reference):
        assert column_sum(values) == reference


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)
subnormal = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e-300, max_value=1e-300)
spread = st.builds(lambda m, e: m * 10.0 ** e,
                   st.floats(min_value=-10.0, max_value=10.0),
                   st.integers(min_value=-300, max_value=300))


class TestKernelBits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite, subnormal, spread), min_size=1,
                    max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_matches_fsum(self, values, block_rows):
        with kernel(block_rows):
            assert_exact_sum(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(finite, subnormal, spread), min_size=1,
                    max_size=30),
           st.lists(st.one_of(finite, subnormal), max_size=4),
           st.randoms(use_true_random=False))
    def test_exact_cancellation(self, values, extra, rnd):
        # a next to -a, shuffled, around a few values that survive.
        terms = values + [-v for v in values] + extra
        rnd.shuffle(terms)
        with kernel():
            assert_exact_sum(terms)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-290, max_value=1e290),
           st.integers(min_value=1, max_value=6),
           st.sampled_from([-1.0, 1.0]),
           st.sampled_from([0.0, 1.0, -1.0]),
           st.randoms(use_true_random=False))
    def test_half_way_ties(self, big, pieces, sign, nudge, rnd):
        # big plus half an ulp, spread over several values, is a tie that
        # rounds to even; a far smaller nudge breaks it either way.
        half_ulp = math.ulp(big) / 2
        terms = [sign * big] + [sign * half_ulp / pieces] * pieces
        terms.append(sign * nudge * half_ulp * 2.0 ** -40)
        rnd.shuffle(terms)
        with kernel():
            assert_exact_sum(terms)

    @pytest.mark.parametrize("kind", ["normal", "spread", "subnormal",
                                      "cancel", "zero"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("size", ["crossover", "block", "blocks"])
    def test_sizes_around_crossover_and_block(self, kind, offset, size):
        # The module's own block size: one block, two (where the second
        # block's sums cross over to the first block's exponent, or the
        # first's to the second's), and several plus a remainder.
        n = {"crossover": 2 * lattice._BLOCK_ROWS,
             "block": lattice._BLOCK_ROWS,
             "blocks": 3 * lattice._BLOCK_ROWS + 5}[size] + offset
        rng = np.random.default_rng(n)
        values = {
            "normal": lambda: rng.normal(3.0, 2.0, n) * rng.normal(size=n),
            "spread": lambda: rng.normal(size=n) * 10.0 ** rng.integers(
                -300, 300, n),
            "subnormal": lambda: rng.integers(-2 ** 40, 2 ** 40, n) * 5e-324,
            "cancel": lambda: np.concatenate([
                a := rng.normal(size=n // 2) * 1e8, -a[::-1],
                rng.normal(size=n - 2 * (n // 2))]),
            "zero": lambda: np.full(n, -0.0),
        }[kind]()
        assert_exact_sum(values)

    def test_flush_keeps_bins_exact(self):
        # 1000 values in one binade, in blocks of 2 rows, whose sums go
        # into Python integers block by block.  The last value cancels all
        # but the low bits of the total, so a sum rounded anywhere would
        # show.
        values = np.random.default_rng(0).uniform(1.0, 2.0, 1000)
        values = np.append(values, -math.fsum(values))
        with kernel(block_rows=2):
            assert_exact_sum(values)
            assert_exact_sum(-values)

    def test_one_block_spanning_the_float_range(self):
        # One block whose column spans 2^-1074 to 2^1023: its limb levels
        # are scaled by powers of two from 2^1074 down, past both ends of
        # the exponent range, in one step, and x*y, x*x spread them
        # further.
        x = [5e-324, 2.0 ** 1023, -3.0, 0.0]
        y = [1.5, -0.25, 7.0, 2.0]
        lat = build_lattice(Dataset({"x": x, "y": y}), [UNITY, X, Y, X * Y, X * X])
        exact = ExactData({"x": x, "y": y})
        for a in lat.directions:
            for b in lat.directions:
                value = exact.vertex(a.factors, b.factors)
                assert (Fraction(lat.exact(a, b)) * Fraction(2) ** lat.scale
                        == value)
                assert_value(lambda: lat.vertex(a, b), value,
                             f"vertex V({a.label}, {b.label})")

    def test_adjacent_columns_are_read_in_place(self):
        # The columns each request reads are evenly spaced rows of the
        # dataset's table, whatever order the request names them in (y
        # before x in the fit, the weight w before x in the mean), so every
        # block the kernel sums is a view of it, not a copy.  A dataset
        # whose columns are copies gives the same exact result.
        def matrix(lat):
            return lat.matrix(lat.directions)

        requests = [
            lambda data: matrix(build_lattice(data, [UNITY, X, Y, X * Y])),
            lambda data: fit(data, parse_model("x = 1 + y")),
            lambda data: weighted_mean(data, "x", "w"),
            lambda data: matrix(build_lattice(data, [UNITY, Direction("w"), Y])),
        ]
        rng = np.random.default_rng(5)
        data = Dataset({name: rng.normal(size=2 * lattice._BLOCK_ROWS + 5)
                        for name in "wxyz"})
        copied = Dataset({name: data.column(name).copy() for name in "zyxw"})
        for request in requests:
            with mock.patch.object(lattice, "_block_vertices",
                                   wraps=lattice._block_vertices) as spy:
                result = request(data)
            blocks = [call.args[0] for call in spy.call_args_list]
            assert [block.shape[1] for block in blocks] == [
                lattice._BLOCK_ROWS, lattice._BLOCK_ROWS, 5]
            assert all(np.shares_memory(block, data._table) for block in blocks)
            assert request(copied) == result

    def test_no_rows_is_empty_data(self):
        with pytest.raises(EmptyDataError, match="^dataset has no rows$"):
            lattice.lattice_of_rows(iter([np.empty((0, 1))]), ["x"], [UNITY])
        with pytest.raises(EmptyDataError, match="^dataset has no rows$"):
            lattice.lattice_of_rows(iter([]), ["x", "y"], [UNITY, Y])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2 ** 120 + 1, 2 ** 120 - 1), min_size=3,
                    max_size=3),
           st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_limb_products_are_exact(self, values, la, lb, lc):
        # Limbs of the products of up to three values, carried in two
        # rounds, hold each product exactly, every limb within 2^20 + 2^10.
        def split(value, count):
            # Limbs as the kernel makes them: of the value's low 20 count
            # bits, each below 2^20 in magnitude, with the value's sign.
            sign, rest = -1 if value < 0 else 1, abs(value) % (1 << 20 * count)
            return [sign * (rest >> 20 * k & (1 << 20) - 1) for k in range(count)]

        def worth(limbs):
            return sum(int(v) << 20 * k for k, v in enumerate(limbs))

        a, b, c = (np.array([split(v, count)]).T
                   for v, count in zip(values, (la, lb, lc)))
        ab = lattice._limb_product(a, b)
        abc = lattice._limb_product(ab, c)
        assert worth(ab[:, 0]) == worth(a[:, 0]) * worth(b[:, 0])
        assert worth(abc[:, 0]) == worth(ab[:, 0]) * worth(c[:, 0])
        assert max(abs(ab).max(), abs(abc).max()) < 2 ** 20 + 2 ** 10


class TestFsumDecides:
    """Inputs on which math.fsum raises or returns inf or nan: a Dataset
    refuses inf and nan, an exact sum outside the float range raises
    NonFiniteResultError naming its vertex, and one that ends inside it,
    whatever its running sums, is returned."""

    special = st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308,
                               -1.7e308, 2.0 ** 1023, 8.9e307, 2.0 ** 1009])

    @staticmethod
    def assert_outcome(values):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            with pytest.raises(ValueError, match="non-finite"):
                Dataset({"x": values})
        else:
            assert_exact_sum(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite, special), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=4))
    def test_same_value_or_error(self, values, block_rows):
        with kernel(block_rows):
            self.assert_outcome(values)

    @pytest.mark.parametrize("values", [
        [1.5e308, 1.5e308, 1.0],        # overflows at the end
        [1.5e308, 1.5e308, -1.5e308],   # overflows midway, ends in range
        [math.inf, 1.0, -math.inf],
        [math.inf, 1.0],
        [math.nan, 1.0],
    ])
    @pytest.mark.parametrize("n", [1, 1000])
    def test_fixtures(self, values, n):
        self.assert_outcome(np.repeat(values, n))

    def test_many_moderate_values_overflow_midway(self):
        # No value comes near the float range, yet a running sum would:
        # 2^15 copies of 2^1010 reach 2^1025 before the negatives cancel
        # them to an exact 0, which math.fsum refuses to return.
        half = np.full(1 << 15, 2.0 ** 1010)
        assert same_bits(column_sum(np.concatenate([half, -half])), 0.0)


@pytest.fixture(scope="module")
def large():
    """20,001 seeded rows: two full blocks of the kernel and a remainder."""
    rng = np.random.default_rng(20001)
    n = 2 * lattice._BLOCK_ROWS + 3617
    x = rng.normal(50.0, 7.0, n)
    z = rng.uniform(0.5, 2.0, n)
    y = 3.0 - 0.25 * x + 4.0 * z + rng.normal(0.0, 0.1, n)
    return Dataset({"x": x, "y": y, "z": z})


@pytest.fixture(scope="module")
def large_exact(large):
    return ExactData({name: large.column(name) for name in large.names})


class TestPipeline:
    def test_vertices(self, large, large_exact):
        dirs = [UNITY, X, Y, Z, X * Y]
        lat = build_lattice(large, dirs)
        for a in dirs:
            for b in dirs:
                expected = rounded(large_exact.vertex(a.factors, b.factors))
                assert same_bits(lat.vertex(a, b), expected)

    def test_sse(self, large, large_exact):
        lat = build_lattice(large, [UNITY, X, Y, Z])
        for spec in (ModelSpec(Y, (UNITY, X, Z)), ModelSpec(UNITY, (X, Y, Z))):
            regs = [d.factors for d in spec.regressors]
            exact = large_exact.sse(
                spec.response.factors, regs,
                large_exact.solve(spec.response.factors, regs))
            assert same_bits(solve(lat, spec).sse, rounded(exact))

    @pytest.mark.parametrize("vertex, target", [
        ((UNITY, UNITY), X), ((UNITY, X), X), ((UNITY, Z), Y), ((X, Z), Y)])
    def test_means(self, large, large_exact, vertex, target):
        a, b = (d.factors for d in vertex)
        expected = rounded(large_exact.vertex(a + b, target.factors)
                           / large_exact.vertex(a, b))
        req = MeanRequest(vertex, target)
        assert same_bits(mean_operator(large, req), expected)
        lat = build_lattice(large, [UNITY, target, *vertex,
                                    vertex[0] * vertex[1]])
        assert same_bits(mean_operator(lat, req), expected)

    def test_cli_rotate_matches_library(self, large, tmp_path, capsys):
        path = tmp_path / "large.csv"
        with open(path, "w", encoding="utf-8") as out:
            out.write("x,y,z\n")
            for row in zip(*(large.column(c).tolist() for c in "xyz")):
                out.write(",".join(map(repr, row)) + "\n")
        assert main(["rotate", "--columns", "x,y,z", "--input", str(path),
                     "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)

        dirs = [UNITY, X, Y, Z]
        lat = build_lattice(large, dirs)
        assert report["measures"] == measure_catalog(lat, ["x", "y", "z"])
        rotations = fit_all_rotations(lat, dirs)
        assert len(report["rotations"]) == len(rotations)
        for shown, rotation in zip(report["rotations"], rotations):
            assert shown["response"] == rotation.response.label
            assert shown["coefficients"] == list(rotation.fit.coefficients)
            assert shown["sse"] == rotation.fit.sse


# -- every value of a lattice against the exact oracle ---------------------

XY = X * Y
MODELS = (ModelSpec(Y, (UNITY, X)), ModelSpec(X, (UNITY, Y)),
          ModelSpec(UNITY, (X, Y)), ModelSpec(UNITY, (X, Y, XY)),
          ModelSpec(XY, (UNITY, X, Y)))
MEANS = (MeanRequest((UNITY, UNITY), X), MeanRequest((UNITY, X), X),
         MeanRequest((UNITY, Y), X), MeanRequest((X, Y), X),
         MeanRequest((UNITY, XY), Y))


def library(n, rng):
    return rng.normal(2.0, 1.0, n), rng.normal(-2.5, 1.0, n)


def grid(offset):
    def make(n, rng):
        z1, z2 = rng.standard_normal((2, n))
        return offset + z1, 1.0 + 0.5 * z1 + 0.25 * z2
    return make


def scaled(factor, make=library):
    return lambda n, rng: tuple(factor * c for c in make(n, rng))


def subnormals(n, rng):
    return (rng.integers(-2 ** 40, 2 ** 40, n) * 5e-324,
            rng.integers(-2 ** 20, 2 ** 20, n) * 5e-324)


def spanning(n, rng):
    # One column from 1e-300 to 1e300, the other holding 1.5e308 and 1.0.
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.integers(-300, 300, n)
    y = rng.choice([1.5e308, 1.0, -2.5, 0.0], n)
    return x, y


def rounded_to_ints(n, rng):
    # y = 3x rounded per row: the fit is exact but no longer collinear.
    x = rng.normal(size=n)
    return x, 3.0 * x


SETS = {"library": library, "grid-0": grid(0.0), "grid-1e4": grid(1e4),
        "grid-1e8": grid(1e8), "1e200": scaled(1e200),
        "1e-200": scaled(1e-200), "grid-1e8-1e-200": scaled(1e-200, grid(1e8)),
        "subnormal": subnormals, "spanning": spanning,
        "3x": rounded_to_ints}


def assert_lattice_exact(x, y):
    data = Dataset({"x": x, "y": y})
    exact = ExactData({"x": x, "y": y})
    dirs = [UNITY, X, Y, XY]
    lat = build_lattice(data, dirs)
    for a in dirs:
        for b in dirs:
            assert_value(lambda: lat.vertex(a, b),
                         exact.vertex(a.factors, b.factors),
                         f"vertex V({a.label}, {b.label})")

    # Catalog entries are rounded in order, so the first one outside the
    # float range is the one named.
    keys = measure_catalog_keys()
    values = {}
    for key in keys:
        values[key] = catalog_entry(exact, key)
    first_bad = next((k for k in keys if rounded(values[k]) is None), None)
    if first_bad is None:
        catalog = measure_catalog(lat, ["x", "y"])
        assert list(catalog) == keys
        for key in keys:
            assert same_bits(catalog[key], rounded(values[key])), key
    else:
        with pytest.raises(NonFiniteResultError) as info:
            measure_catalog(lat, ["x", "y"])
        assert str(info.value).endswith(
            f"{catalog_name(first_bad)} is outside the float range")

    for spec in MODELS:
        regs = [d.factors for d in spec.regressors]
        coefficients = exact.solve(spec.response.factors, regs)
        if coefficients is None:
            with pytest.raises(SingularSystemError):
                solve(lat, spec)
            continue
        result = solve(lat, spec)
        bad = [i for i, c in enumerate(coefficients) if rounded(c) is None]
        if bad:
            # Reading the coefficients names the first that cannot be rounded.
            assert_value(lambda: result.coefficients, coefficients[bad[0]],
                         f"coefficient {bad[0]} of {spec.label!r}")
        else:
            assert result.coefficients == tuple(map(rounded, coefficients))
            assert all(map(same_bits, result.coefficients,
                           map(rounded, coefficients)))
        assert_value(lambda: result.sse,
                     exact.sse(spec.response.factors, regs, coefficients),
                     f"SSE of {spec.label!r}")

    for req in MEANS:
        a, b = (d.factors for d in req.vertex)
        weight = exact.vertex(a, b)
        if weight == 0:
            continue
        ratio = exact.vertex(a + b, req.target.factors) / weight
        ab = req.vertex[0] * req.vertex[1]
        name = (f"mean V({ab.label}, {req.target.label}) / "
                f"V({req.vertex[0].label}, {req.vertex[1].label})")
        assert_value(lambda: mean_operator(lat, req), ratio, name)
        assert_value(lambda: mean_operator(data, req), ratio, name)


def measure_catalog_keys():
    return ["v_11", "v_1x", "v_1y", "v_xx", "v_xy", "v_yy",
            "delta_11xx", "delta_11yy", "delta_11xy", "delta_1yxx",
            "delta_1xyy", "delta_xxyy", "sigma_11xx", "sigma_11yy",
            "sigma_11xy", "sigma_1yxx", "sigma_1xyy", "sigma_xxyy"]


def catalog_entry(exact, key):
    prefix, _, subs = key.partition("_")
    dirs = [() if ch == "1" else (ch,) for ch in subs]
    if prefix == "v":
        return exact.vertex(*dirs)
    value = exact.det(dirs[0::2], dirs[1::2])
    return value / exact.n ** 2 if prefix == "sigma" else value


def catalog_name(key):
    if key.startswith("v_"):
        return f"vertex V({key[2]}, {key[3]})"
    return ("determinant " if key.startswith("delta_") else "") + key


class TestExactLattice:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(SETS)), st.integers(min_value=1, max_value=12),
           st.integers(min_value=1, max_value=4), st.integers(0, 2 ** 32 - 1))
    def test_every_value_is_exact_rounded_once(self, name, n, block_rows, seed):
        # n from a single row up to three blocks and more.
        x, y = SETS[name](n, np.random.default_rng(seed))
        with kernel(block_rows):
            assert_lattice_exact(x, y)

    @pytest.mark.parametrize("name", sorted(SETS))
    @pytest.mark.parametrize("n", [16, 128, 1024])
    def test_sets_at_library_sizes(self, name, n):
        x, y = SETS[name](n, np.random.default_rng(n))
        assert_lattice_exact(x, y)

    def test_collinear_is_singular(self):
        x = np.random.default_rng(3).normal(size=50)
        data = Dataset({"x": x, "y": 2.0 * x})   # exactly 2x: no rounding
        with pytest.raises(SingularSystemError):
            solve(build_lattice(data, [UNITY, X, Y]), ModelSpec(UNITY, (X, Y)))

    def test_rounded_multiple_is_fit(self):
        # 3x rounded per row is no longer collinear with x: the exact
        # determinant is tiny but not 0, and the fit is correctly rounded.
        x = np.random.default_rng(3).normal(size=50)
        y = 3.0 * x
        exact = ExactData({"x": x, "y": y})
        assert exact.det([("x",), ("y",)], [("x",), ("y",)]) != 0
        lat = build_lattice(Dataset({"x": x, "y": y}), [UNITY, X, Y])
        result = solve(lat, ModelSpec(UNITY, (X, Y)))
        expected = exact.solve((), [("x",), ("y",)])
        assert result.coefficients == tuple(rounded(c) for c in expected)
