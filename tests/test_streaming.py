"""The streaming path: CSV chunks folded straight into the exact lattice.

``read_lattice`` parses a CSV and folds each chunk of rows into the
vertices as it goes; ``build_lattice(read_csv(...))`` holds every row
first.  These tests hold the two to the same exact vertices and the same
errors, hold the fold to the same exact vertices over any split of the
rows into blocks, check that memory stays flat in the number of rows,
and check that no CLI command builds a Dataset.
"""

import io
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latreg.cli
import latreg.lattice as lattice
from latreg import (ColumnNotFoundError, CsvFormatError, Dataset, Direction,
                    LatregError, NonFiniteResultError, UNITY, build_lattice,
                    read_csv, read_lattice)
from latreg import dataio
from latreg.cli import main

from oracles import ExactData
from test_csv_chunks import csv_documents


def exact_vertices(lat):
    """Every vertex of a lattice as an exact Fraction, by factor pair."""
    return {(a.factors, b.factors):
            Fraction(lat.exact(a, b)) * Fraction(2) ** (lat.exponent(a)
                                                         + lat.exponent(b))
            for a in lat.directions for b in lat.directions}


def rounded_vertices(lat):
    """Every vertex rounded once, or the message of the error naming it."""
    out = {}
    for a in lat.directions:
        for b in lat.directions:
            try:
                out[a.factors, b.factors] = lat.vertex(a, b)
            except NonFiniteResultError as err:
                out[a.factors, b.factors] = str(err)
    return out


special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                           1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0])
values = st.one_of(
    special,
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e-300, max_value=1e-300),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e300, max_value=1e300),
)
DIRECTIONS = [Direction("x"), Direction("y"), Direction("z"),
              Direction("x", "y"), Direction("x", "x"), Direction("y", "z")]


@st.composite
def row_sets(draw):
    """Columns x, y, z of up to 2400 rows, more than one kernel block, as
    a pattern of adversarial values tiled, and directions that include
    unity, plain and product."""
    n = draw(st.integers(1, 40))
    pattern = {name: draw(st.lists(values, min_size=n, max_size=n))
               for name in "xyz"}
    tiles = draw(st.sampled_from([1, 1, 3, 60]))
    columns = {name: np.tile(np.array(col), tiles)
               for name, col in pattern.items()}
    directions = [UNITY] + draw(st.lists(st.sampled_from(DIRECTIONS),
                                         min_size=1, max_size=4, unique=True))
    return columns, directions


def split_points(draw, n, largest):
    """Cut points 0 < ... < n: up to a dozen drawn cuts, plus a cut after
    every ``largest`` rows of a longer piece."""
    drawn = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=12))
    cuts = [0]
    for at in sorted({*drawn, n}):
        cuts += range(cuts[-1] + largest, at, largest)
        cuts.append(at)
    return cuts


class TestFold:
    @settings(max_examples=40, deadline=None)
    @given(rows=row_sets(), data=st.data())
    def test_any_block_split_gives_the_same_lattice(self, rows, data):
        columns, directions = rows
        n = len(columns["x"])
        whole = build_lattice(Dataset(columns), directions)
        expected = exact_vertices(whole)
        if n <= 120:  # the oracle's Python integers are slow on long columns
            oracle = ExactData(columns)
            for (a, b), value in expected.items():
                assert value == oracle.vertex(a, b)

        cuts = split_points(data.draw, n, lattice._BLOCK_ROWS)

        def blocks(names):
            return (np.array([columns[name][start:end] for name in names]
                             ).reshape(len(names), end - start)
                    for start, end in zip(cuts, cuts[1:]))

        folded = lattice._fold(directions, blocks)
        assert exact_vertices(folded) == expected
        assert rounded_vertices(folded) == rounded_vertices(whole)

        # Row chunks of any size, empty ones too, re-cut into blocks.
        cuts = sorted(set(split_points(data.draw, n, 3 * lattice._BLOCK_ROWS))
                      | {data.draw(st.integers(0, n))})
        table = np.column_stack([columns[name] for name in "zyx"])
        chunks = [table[start:end] for start, end in zip(cuts, cuts[1:])]
        chunks.insert(data.draw(st.integers(0, len(chunks))), table[:0])
        from_rows = lattice.lattice_of_rows(iter(chunks), ["z", "y", "x"],
                                            directions)
        assert exact_vertices(from_rows) == expected
        assert rounded_vertices(from_rows) == rounded_vertices(whole)

    def test_rows_are_recut_into_full_blocks(self):
        rng = np.random.default_rng(7)
        table = rng.normal(size=(3 * lattice._BLOCK_ROWS + 5, 2))
        chunks = np.array_split(table, 40)
        with mock.patch.object(lattice, "_block_vertices",
                               wraps=lattice._block_vertices) as kernel:
            lattice.lattice_of_rows(iter(chunks), ["x", "y"],
                                    [UNITY, Direction("x")])
        widths = [call.args[0].shape for call in kernel.call_args_list]
        assert widths == [(1, lattice._BLOCK_ROWS)] * 3 + [(1, 5)]

    def test_unknown_column_before_any_chunk(self):
        def chunks():
            raise AssertionError("a chunk was read")
            yield

        with pytest.raises(ColumnNotFoundError):
            lattice.lattice_of_rows(chunks(), ["x"], [UNITY, Direction("w")])


def lattice_outcome(read):
    """Every vertex of the lattice ``read()`` gives, exact and rounded,
    or the error's type, message, row and column."""
    try:
        lat = read()
    except LatregError as err:
        return (type(err).__name__, str(err), getattr(err, "row", None),
                getattr(err, "column", None))
    return exact_vertices(lat), rounded_vertices(lat)


class TestReadersAgree:
    @settings(max_examples=300, deadline=None)
    @given(document=csv_documents(), chunk_chars=st.integers(1, 64),
           data=st.data())
    def test_same_outcome(self, document, chunk_chars, data):
        text, selection = document
        plain = [Direction(name) for name in selection]
        directions = [UNITY, *plain, data.draw(st.sampled_from(plain))
                      * data.draw(st.sampled_from(plain))]

        def source():
            return io.StringIO(text, newline="")

        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
            expected = lattice_outcome(
                lambda: build_lattice(read_csv(source(), selection), directions))
            assert lattice_outcome(
                lambda: read_lattice(source(), selection, directions)) == expected

    def test_quoted_input_streams_in_bounded_blocks(self):
        rows = [f'"{i}",{i / 3!r}' for i in range(1000)]
        text = "x,y\n" + "\n".join(rows) + "\n"
        with mock.patch.object(dataio, "_CELL_ROWS", 64):
            stream = io.StringIO(text, newline="")
            blocks = list(dataio._blocks(stream, ("y", "x")))
        assert [len(block) for block, _ in blocks] == [64] * 15 + [40]
        assert [first for _, first in blocks] == list(range(1, 1001, 64))
        table = np.concatenate([block for block, _ in blocks])
        assert table[:, 1].tolist() == [float(i) for i in range(1000)]
        assert table[:, 0].tolist() == [i / 3 for i in range(1000)]

    def test_error_row_after_a_bounded_block(self):
        rows = [f'"{i}",{i}' for i in range(300)]
        rows[200] = '"200",oops'
        text = "x,y\n" + "\n".join(rows) + "\n"
        with mock.patch.object(dataio, "_CELL_ROWS", 64), \
                pytest.raises(CsvFormatError) as info:
            read_lattice(io.StringIO(text), ["x", "y"], [UNITY, Direction("y")])
        assert (info.value.row, info.value.column) == (201, "y")


def write_rows(path, n, quoted=False):
    rng = np.random.default_rng(n)
    cell = '"{!r}"' if quoted else "{!r}"
    with open(path, "w", encoding="utf-8") as out:
        out.write("x,y,z\n")
        for row in np.round(rng.normal(size=(n, 3)), 6).tolist():
            out.write(",".join(cell.format(v) for v in row) + "\n")


def peak_bytes(read):
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFlatMemory:
    DIRECTIONS = [UNITY, Direction("x"), Direction("y"), Direction("z")]

    @pytest.mark.parametrize("quoted, small, large", [
        (False, 20_000, 200_000), (True, 10_000, 40_000)],
        ids=["plain", "quoted"])
    def test_peak_does_not_grow_with_rows(self, tmp_path, quoted, small, large):
        peaks = []
        for n in (small, large):
            path = tmp_path / f"{n}.csv"
            write_rows(path, n, quoted)
            peaks.append(peak_bytes(
                lambda: read_lattice(path, ["x", "y", "z"], self.DIRECTIONS)))
        assert peaks[1] <= 1.25 * peaks[0], peaks


CLI_REQUESTS = [
    ["measures", "--columns", "x,y,z"],
    ["means", "--columns", "x,y,z"],
    ["fit", "--model", "1 = x + y + x*y"],
    ["rotate", "--columns", "x,y,z"],
]


class TestCliBuildsNoDataset:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", CLI_REQUESTS, ids=lambda a: a[0])
    def test_same_output_without_a_dataset(self, tmp_path, capsys, argv, fmt):
        path = tmp_path / "data.csv"
        write_rows(path, 5000)
        argv = [*argv, "--input", str(path), "--format", fmt]

        def held(source, names, directions):
            return build_lattice(read_csv(source, names), directions)

        with mock.patch.object(latreg.cli, "read_lattice", held):
            assert main(argv) == 0
        expected = capsys.readouterr().out

        def refuse(*args, **kwargs):
            raise AssertionError("a Dataset was built")

        with mock.patch.object(lattice.Dataset, "__init__", refuse):
            assert main(argv) == 0
        assert capsys.readouterr().out == expected
