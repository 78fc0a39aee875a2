"""The binned exact sum behind checked_fsum gives math.fsum's bits.

math.fsum is the reference: every sum the kernel takes must equal it bit
for bit (the sign of a zero included), and every sum it hands back to
math.fsum must raise or return exactly what math.fsum does.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latreg.lattice as lattice
from latreg import (Dataset, Direction, MeanRequest, ModelSpec,
                    NonFiniteResultError, UNITY, build_lattice,
                    fit_all_rotations, mean_operator, measure_catalog, solve)
from latreg.cli import main

from conftest import X, Y, Z

NAME = "sum {}"


def same_bits(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def kernel(block_rows=4, **constants):
    """Sends every array to the binned kernel, in blocks of ``block_rows``
    values, so that short arrays cover several blocks and a remainder."""
    return mock.patch.multiple(lattice, _KERNEL_MIN_ROWS=0,
                               _BLOCK_ROWS=block_rows, **constants)


def fsum_outcome(values):
    """math.fsum's value, or the message checked_fsum must raise."""
    try:
        return math.fsum(values.tolist())
    except (OverflowError, ValueError) as err:
        return f"{NAME.format(X.label)} is outside the float range ({err})"


def assert_fsum_outcome(values):
    expected = fsum_outcome(values)
    if isinstance(expected, str):
        with pytest.raises(NonFiniteResultError) as info:
            lattice.checked_fsum(values, NAME, X)
        assert str(info.value) == expected
    elif math.isnan(expected):
        assert math.isnan(lattice.checked_fsum(values, NAME, X))
    else:
        assert same_bits(lattice.checked_fsum(values, NAME, X), expected)


def assert_same_as_fsum(values):
    values = np.asarray(values, dtype=float)
    assert same_bits(lattice.checked_fsum(values, NAME), math.fsum(values))


finite = st.floats(allow_nan=False, allow_infinity=False,
                   min_value=-1e300, max_value=1e300)
subnormal = st.floats(allow_nan=False, allow_infinity=False,
                      min_value=-1e-300, max_value=1e-300)
spread = st.builds(lambda m, e: m * 10.0 ** e,
                   st.floats(min_value=-10.0, max_value=10.0),
                   st.integers(min_value=-300, max_value=300))


class TestKernelBits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite, subnormal, spread), max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_matches_fsum(self, values, block_rows):
        with kernel(block_rows):
            assert_same_as_fsum(values)

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
            assert_same_as_fsum(terms)

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
            assert_same_as_fsum(terms)

    @pytest.mark.parametrize("kind", ["normal", "spread", "subnormal",
                                      "cancel", "zero"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("size", ["crossover", "block", "blocks"])
    def test_sizes_around_crossover_and_block(self, kind, offset, size):
        # The module's own constants: a short array takes math.fsum and a
        # long one the kernel, in full blocks plus a remainder.
        n = {"crossover": lattice._KERNEL_MIN_ROWS,
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
        calls = []
        binned = lattice._binned_sum
        with mock.patch.object(lattice, "_binned_sum",
                               lambda v: calls.append(len(v)) or binned(v)):
            assert_same_as_fsum(values)
        assert calls == ([n] if n >= lattice._KERNEL_MIN_ROWS else [])

    def test_flush_keeps_bins_exact(self):
        # With 2 split bits a bin stays exact for only 4 high parts, so
        # 1000 values in one binade need the bins moved out every 2 blocks
        # of 2 values.  The last value cancels all but the low bits of the
        # total, so a high part rounded in a bin shows in the result.
        values = np.random.default_rng(0).uniform(1.0, 2.0, 1000)
        values = np.append(values, -math.fsum(values))
        with kernel(block_rows=2, _SPLIT_BITS=2):
            assert_same_as_fsum(values)
            assert_same_as_fsum(-values)


class TestFsumDecides:
    """Arrays with inf, nan or near-overflow magnitudes reach math.fsum,
    whose value or error message checked_fsum keeps."""

    special = st.sampled_from([math.inf, -math.inf, math.nan, 1.7e308,
                               -1.7e308, 2.0 ** 1023, 8.9e307, 2.0 ** 1009])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(finite, special), min_size=1, max_size=20),
           st.integers(min_value=1, max_value=4))
    def test_same_value_or_error(self, values, block_rows):
        with kernel(block_rows):
            assert_fsum_outcome(np.array(values))

    @pytest.mark.parametrize("values", [
        [1.5e308, 1.5e308, 1.0],        # overflows at the end
        [1.5e308, 1.5e308, -1.5e308],   # overflows midway, ends in range
        [math.inf, 1.0, -math.inf],
        [math.inf, 1.0],
        [math.nan, 1.0],
    ])
    @pytest.mark.parametrize("n", [1, 1000])
    def test_fixtures(self, values, n):
        assert_fsum_outcome(np.repeat(values, n))

    def test_many_moderate_values_overflow_midway(self):
        # No value comes near the float range, yet the running sum does:
        # 2^15 copies of 2^1010 reach 2^1025 before the negatives cancel
        # them to an exact 0, which math.fsum refuses to return.
        half = np.full(1 << 15, 2.0 ** 1010)
        assert_fsum_outcome(np.concatenate([half, -half]))


@pytest.fixture(scope="module")
def large():
    """20,001 seeded rows: two full blocks of the kernel and a remainder."""
    rng = np.random.default_rng(20001)
    n = 2 * lattice._BLOCK_ROWS + 3617
    x = rng.normal(50.0, 7.0, n)
    z = rng.uniform(0.5, 2.0, n)
    y = 3.0 - 0.25 * x + 4.0 * z + rng.normal(0.0, 0.1, n)
    return Dataset({"x": x, "y": y, "z": z})


class TestPipeline:
    def test_vertices(self, large):
        dirs = [UNITY, X, Y, Z, X * Y]
        lat = build_lattice(large, dirs)
        for a in dirs:
            for b in dirs:
                expected = math.fsum(large.evaluate(a) * large.evaluate(b))
                assert same_bits(lat.vertex(a, b), expected)
                assert same_bits(large.vertex(a, b), expected)

    def test_sse(self, large):
        lat = build_lattice(large, [UNITY, X, Y, Z])
        for spec in (ModelSpec(Y, (UNITY, X, Z)), ModelSpec(UNITY, (X, Y, Z))):
            result = solve(lat, spec)
            residuals = large.evaluate(spec.response) - result.predict(large)
            assert same_bits(result.sse, math.fsum(residuals * residuals))

    @pytest.mark.parametrize("vertex, target", [
        ((UNITY, UNITY), X), ((UNITY, X), X), ((UNITY, Z), Y), ((X, Z), Y)])
    def test_means(self, large, vertex, target):
        weights = large.evaluate(vertex[0]) * large.evaluate(vertex[1])
        expected = (math.fsum(weights * large.evaluate(target))
                    / math.fsum(weights))
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
