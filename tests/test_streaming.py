"""The streaming path: CSV chunks folded straight into the exact lattice.

``read_lattice`` parses a CSV and folds each chunk of rows into the
vertices as it goes; ``build_lattice(read_csv(...))`` holds every row
first.  These tests hold the two to the same exact vertices and the same
errors, hold the fold to the same exact vertices over any split of the
rows into blocks, check that memory stays flat in the number of rows,
and check that no CLI command builds a Dataset.  A large file is read
as two byte ranges, one by a forked worker; those tests hold it to the
serial read's exact lattice and errors, and check that no worker
outlives it.
"""

import functools
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager
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
            Fraction(lat.exact(a, b)) * Fraction(2) ** lat.scale
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

        source = np.array([columns[name] for name in "xyz"])

        plan = lattice._plan(tuple(directions), tuple("xyz"))
        _, rows, width, _ = plan
        blocks = (source[rows, start:end].reshape(width, end - start)
                  for start, end in zip(cuts, cuts[1:]))

        folded = lattice._fold(plan, blocks)
        assert exact_vertices(folded) == expected
        assert rounded_vertices(folded) == rounded_vertices(whole)

        # The parts' lattices add up exactly in any order and grouping, at
        # the lowest scale among them.
        parts = [build_lattice(Dataset({name: column[start:end]
                                        for name, column in columns.items()}),
                               directions)
                 for start, end in zip(cuts, cuts[1:])]
        order = data.draw(st.permutations(parts))
        left = functools.reduce(lattice._sum, order)
        right = functools.reduce(lambda total, part: lattice._sum(part, total),
                                 reversed(order))
        for total in (left, right):
            assert exact_vertices(total) == expected
            assert total.scale == min(part.scale for part in parts)

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
        assert [len(block) for block in blocks] == [64] * 15 + [40]
        table = np.concatenate(blocks)
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


SPLIT_DIRECTIONS = [UNITY, Direction("x"), Direction("y"), Direction("x", "y")]


@contextmanager
def usable_cpus(count, chunk_chars=4):
    """``count`` usable CPUs and chunks of ``chunk_chars`` characters, so
    that a file of a few hundred bytes splits into two ranges; yields
    spies on the workers forked and on serial reads."""
    with mock.patch.object(dataio.os, "sched_getaffinity",
                           return_value=set(range(count))), \
            mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(dataio, "_fork", wraps=dataio._fork) as fork, \
            mock.patch.object(dataio, "_blocks", wraps=dataio._blocks) as serial:
        yield fork, serial


def serial_outcome(raw, names, directions):
    """The outcome of the serial read: a binary stream is never split."""
    return lattice_outcome(
        lambda: read_lattice(io.BytesIO(raw), names, directions))


def cut_of(path):
    with open(path, "rb") as file:
        return dataio._cut(file.fileno())


@st.composite
def split_documents(draw):
    """CSV bytes of 40 to 160 rows that split into ranges: selected
    columns x and y of normal, subnormal, zero and +-1e300 values, an
    unselected text column t that may be non-ASCII, blank lines alone
    and in runs long enough to fill a range, lines ending in LF or CRLF
    (or a mix with CR), and maybe a BOM."""
    newline = draw(st.sampled_from(["\n", "\r\n", "mix"]))
    ends = ["\n", "\r\n", "\r"] if newline == "mix" else [newline]
    cell = values.map(repr)
    text = st.sampled_from(["a", "caf\xe9", "\u0663", "na\xefve x", ""])
    lines = []
    for _ in range(draw(st.integers(8, 20))):
        end = draw(st.sampled_from(ends))
        lines.append(end * draw(st.sampled_from([0] * 6 + [1, 2, 200]))
                     + f"{draw(cell)},{draw(text)},{draw(cell)}" + end)
    lines *= draw(st.integers(5, 8))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + "x,t,y" + ends[0] + "".join(lines)).encode("utf-8"), newline


class TestSplitRead:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @settings(max_examples=40, deadline=None)
    @given(document=split_documents(), cpus=st.integers(2, 4),
           names=st.sampled_from([("x", "y"), ("y", "x"), ("y", "t", "x")]))
    def test_same_exact_lattice(self, document, cpus, names):
        raw, newline = document
        directions = SPLIT_DIRECTIONS
        if "t" in names:  # a text column read as numbers fails
            directions = [UNITY, Direction("x")]
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "data.csv")
            with open(path, "wb") as out:
                out.write(raw)
            with usable_cpus(cpus) as (fork, serial):
                expected = serial_outcome(raw, names, directions)
                cut = cut_of(path)
                serial.reset_mock()
                assert lattice_outcome(
                    lambda: read_lattice(path, names, directions)) == expected
        if newline != "mix":
            assert cut is not None
        # However many CPUs are usable, one worker reads the second range.
        assert fork.call_count == (cut is not None)
        # A serial read follows only an unsplit file or a failed range, and
        # every range fails when the text column t is read as numbers.
        assert serial.call_count == (cut is None or "t" in names)

    def test_ranges_of_blank_lines_only(self, tmp_path):
        # One range holds only blank lines.  That range fails like any
        # other, so the file is read again serially, which gives the same
        # lattice; "data section is empty" is a verdict on the whole file,
        # never on one range.
        rows = b"1.5,2\n-3,4.25e-310\n"
        path = tmp_path / "blank.csv"
        for raw in (b"x,y\n" + rows + b"\n" * 3000,
                    b"x,y\n" + b"\n" * 3000 + rows):
            path.write_bytes(raw)
            with usable_cpus(4) as (fork, serial):
                expected = serial_outcome(raw, ("x", "y"), SPLIT_DIRECTIONS)
                serial.reset_mock()
                assert lattice_outcome(lambda: read_lattice(
                    path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
            assert fork.call_count == 1 and serial.call_count == 1
            assert expected[0][(), ()] == 2

        path.write_bytes(b"x,y\n" + b"\r\n" * 3000)
        with usable_cpus(4) as (fork, serial), \
                pytest.raises(CsvFormatError, match="^data section is empty$"):
            read_lattice(path, ("x", "y"), SPLIT_DIRECTIONS)
        assert fork.call_count == 1 and serial.call_count == 1

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("fault", ["cell", "ragged"])
    def test_same_error_from_any_range(self, tmp_path, cpus, where, fault):
        rows = [f"{i / 7!r},{-i!r}" for i in range(400)]
        at = 20 if where == "first" else 390
        rows[at] = "1,oops" if fault == "cell" else "1,2,3"
        raw = ("x,y\n" + "\n".join(rows) + "\n").encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with usable_cpus(cpus) as (fork, serial):
            expected = serial_outcome(raw, ("x", "y"), SPLIT_DIRECTIONS)
            serial.reset_mock()
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        assert expected[2] == at + 1
        assert fork.call_count == 1 and serial.call_count == 1

    def test_bom_after_a_cut_is_a_bad_cell(self, tmp_path):
        # U+FEFF is a BOM only at the start of the file.  At the start of a
        # later range it is the first character of a cell, as when read
        # serially, so the cell is no number.
        rows = [f"{i}.5,{i}" for i in range(300)]
        path = tmp_path / "bom.csv"
        path.write_bytes(("x,y\n" + "\n".join(rows) + "\n").encode())
        with usable_cpus(2):
            cut = cut_of(path)
        raw = bytearray(path.read_bytes())
        raw[cut:cut + 3] = "\ufeff".encode()
        path.write_bytes(raw)
        with usable_cpus(2) as (fork, _):
            expected = serial_outcome(bytes(raw), ("x", "y"), SPLIT_DIRECTIONS)
            assert expected[0] == "CsvFormatError" and expected[3] == "x"
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        assert fork.call_count == 1

    def test_decode_error_past_a_cut_comes_first(self, tmp_path):
        # Range 0 ends in a bad cell and range 1 starts with a byte that
        # is no UTF-8.  The serial read decodes ahead of its parse, so it
        # reports the byte; range 0 alone would report the cell, which is
        # why an error in any range is left to the serial read.
        rows = [f"{i}.5,{i}" for i in range(300)]
        path = tmp_path / "bad.csv"
        path.write_bytes(("x,y\n" + "\n".join(rows) + "\n").encode())
        with usable_cpus(2):
            cut = cut_of(path)
        raw = bytearray(path.read_bytes())
        before = raw.rindex(b"\n", 0, cut - 1) + 1
        raw[before:before + 3] = b"bad"
        raw[cut] = 0xFF
        path.write_bytes(raw)
        with usable_cpus(2) as (fork, _):
            expected = serial_outcome(bytes(raw), ("x", "y"), SPLIT_DIRECTIONS)
            assert "cannot be decoded" in expected[1]
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        assert fork.call_count == 1

    def test_slow_workers_are_killed_when_range_0_fails(self, tmp_path):
        rows = [f"{i},{i}" for i in range(400)]
        rows[5] = "oops,1"
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        start = time.monotonic()
        with usable_cpus(3) as (fork, _), \
                mock.patch.object(dataio, "_fold_range",
                                  lambda *args: time.sleep(60)), \
                pytest.raises(CsvFormatError) as info:
            read_lattice(path, ("x", "y"), SPLIT_DIRECTIONS)
        assert (info.value.row, info.value.column) == (6, "x")
        assert fork.call_count == 1 and time.monotonic() - start < 30

    def test_a_worker_that_dies_is_read_serially(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, 400)
        with usable_cpus(2):
            expected = lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS))
        with usable_cpus(2) as (fork, serial), \
                mock.patch.object(dataio, "_fold_range",
                                  lambda *args: os.kill(os.getpid(),
                                                        signal.SIGKILL)):
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        assert fork.call_count == 1 and serial.call_count == 1

    def test_a_refused_fork_is_read_serially(self, tmp_path):
        # The host refuses the fork: both ends of the worker's pipe are
        # closed, and the file is read serially to the same lattice.
        path = tmp_path / "data.csv"
        write_rows(path, 400)
        with usable_cpus(2):
            expected = lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS))
        pipes, real_pipe = [], os.pipe

        def pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        refused = OSError(11, "Resource temporarily unavailable")
        with usable_cpus(2) as (fork, serial), \
                mock.patch.object(dataio.os, "pipe", pipe), \
                mock.patch.object(dataio.os, "fork", side_effect=refused):
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        assert fork.call_count == 1 and serial.call_count == 1
        assert len(pipes) == 1
        for end in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(end)

    @pytest.mark.parametrize("where", ["header", "middle", "last"])
    def test_quoted_file_is_read_serially(self, tmp_path, where):
        # A " only in the header, in a multi-line field of the unselected
        # column t that spans the middle of the file, or in the last line
        # sends the file to the serial read before any worker is forked.
        rows = [f"{i / 7!r},t{i},{-i!r}" for i in range(400)]
        header = '"x","t","y"' if where == "header" else "x,t,y"
        if where == "middle":
            rows.insert(200, '1.5,"' + "two\nlines " * 40 + '",-2')
        elif where == "last":
            rows.append('0.25,"t",4')
        raw = "\n".join([header, *rows, ""]).encode()
        if where == "middle":
            assert raw.index(b'"') < len(raw) // 2 < raw.rindex(b'"')
        else:
            assert raw.count(b'"') == (6 if where == "header" else 2)
        path = tmp_path / "quoted.csv"
        path.write_bytes(raw)
        names = ("y", "x")
        with usable_cpus(2) as (fork, serial):
            expected = serial_outcome(raw, names, SPLIT_DIRECTIONS)
            serial.reset_mock()
            assert cut_of(path) is None
            assert lattice_outcome(lambda: read_lattice(
                path, names, SPLIT_DIRECTIONS)) == expected
        assert expected[0][(), ()] == 400 + (where != "header")
        assert fork.call_count == 0 and serial.call_count == 1

    @pytest.mark.parametrize("directions", [
        [Direction("x"), Direction("y")], [UNITY, Direction("q")], []],
        ids=["no-unity", "unknown-column", "empty"])
    def test_bad_directions_before_the_header(self, tmp_path, directions):
        # Directions are checked before the header is read or a worker is
        # forked, and fail as in a stream read.
        path = tmp_path / "data.csv"
        write_rows(path, 400)

        def error(source):
            with pytest.raises(ValueError) as info:
                read_lattice(source, ("x", "y"), directions)
            return type(info.value), str(info.value)

        with usable_cpus(2) as (fork, _), \
                mock.patch.object(dataio, "_header",
                                  wraps=dataio._header) as header:
            assert cut_of(path) is not None
            from_path = error(path)
            assert header.call_count == fork.call_count == 0
            assert from_path == error(io.BytesIO(path.read_bytes()))
            # Nor is the source opened first: a path that cannot be opened
            # and a stream without a header fail on the directions too.
            assert from_path == error(tmp_path / "missing.csv")
            assert from_path == error(io.BytesIO())

    def test_serial_cases_stay_serial(self, tmp_path):
        path = tmp_path / "data.csv"
        write_rows(path, 400)
        quoted = tmp_path / "quoted.csv"
        write_rows(quoted, 400)
        with open(quoted, "a") as out:
            out.write('"1",2,3\n')
        names = ("x", "y")

        def reads(source, cpus=4, chunk_chars=4):
            """Workers forked and serial reads made by one read."""
            with usable_cpus(cpus, chunk_chars) as (fork, serial):
                read_lattice(source, names, SPLIT_DIRECTIONS)
            return fork.call_count, serial.call_count

        assert reads(path) == (1, 0)
        assert reads(quoted) == (0, 1)
        with open(path, "rb") as stream:
            assert reads(stream) == (0, 1)
        assert reads(path, cpus=1) == (0, 1)
        assert reads(path, chunk_chars=1 << 16) == (0, 1)  # a small file

        # Workers the parent could not reap, or that a handler might reap
        # before it, are never forked.
        for action in (signal.SIG_IGN, lambda signum, frame: None):
            previous = signal.signal(signal.SIGCHLD, action)
            try:
                assert reads(path) == (0, 1)
            finally:
                signal.signal(signal.SIGCHLD, previous)

        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            assert reads(path) == (0, 1)
        finally:
            done.set()
            thread.join()

    def test_more_cpus_than_ranges(self, tmp_path):
        # Eight usable CPUs still make two ranges, cut at the first line
        # end at or past the middle, and one worker.
        path = tmp_path / "data.csv"
        write_rows(path, 400)
        raw = path.read_bytes()
        with usable_cpus(8) as (fork, serial):
            expected = serial_outcome(raw, ("x", "y"), SPLIT_DIRECTIONS)
            serial.reset_mock()
            assert lattice_outcome(lambda: read_lattice(
                path, ("x", "y"), SPLIT_DIRECTIONS)) == expected
            assert cut_of(path) == raw.index(b"\n", len(raw) // 2) + 1
        assert fork.call_count == 1 and serial.call_count == 0

    def test_named_pipe_is_opened_once(self, tmp_path):
        # A named pipe is no regular file, so it is read serially, from its
        # one open: a reader that closed it and opened it again would lose
        # what the writer had sent, then wait for a writer that is gone.
        data = tmp_path / "data.csv"
        write_rows(data, 400)
        with usable_cpus(2):
            expected = lattice_outcome(lambda: read_lattice(
                data, ("x", "y"), SPLIT_DIRECTIONS))
        pipe = tmp_path / "pipe.csv"
        os.mkfifo(pipe)
        writer = subprocess.Popen([
            sys.executable, "-c",
            "import sys; open(sys.argv[2], 'wb').write("
            "open(sys.argv[1], 'rb').read())", str(data), str(pipe)])

        def stuck(signum, frame):
            raise TimeoutError("read_lattice waits on the pipe")

        previous = signal.signal(signal.SIGALRM, stuck)
        signal.alarm(30)
        try:
            with usable_cpus(2) as (fork, serial):
                assert lattice_outcome(lambda: read_lattice(
                    pipe, ("x", "y"), SPLIT_DIRECTIONS)) == expected
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            try:
                writer.wait(timeout=30)
            finally:
                writer.kill()  # only if it is still running
                writer.wait()
        assert writer.returncode == 0
        assert fork.call_count == 0 and serial.call_count == 1

    def test_fallback_reads_the_file_that_was_opened(self, tmp_path):
        # A bad cell in range 0 sends the read back to the serial reader,
        # which reads the file already open, not whatever the path names
        # by then.
        path = tmp_path / "data.csv"
        rows = [f"{i},{i}" for i in range(400)]
        rows[5] = "oops,1"
        path.write_text("x,y\n" + "\n".join(rows) + "\n")
        other = tmp_path / "other.csv"
        write_rows(other, 400)
        fork = dataio._fork

        def fork_then_replace(*args):
            forked = fork(*args)
            os.replace(other, path)
            return forked

        with usable_cpus(2), \
                mock.patch.object(dataio, "_fork", fork_then_replace), \
                pytest.raises(CsvFormatError) as info:
            read_lattice(path, ("x", "y"), SPLIT_DIRECTIONS)
        assert (info.value.row, info.value.column) == (6, "x")
        assert not other.exists()

    def test_cli_stdin_is_read_serially(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "data.csv"
        write_rows(path, 400)
        argv = ["rotate", "--columns", "x,y,z", "--format", "json"]
        with usable_cpus(4) as (fork, _):
            assert main([*argv, "--input", str(path)]) == 0
            from_path = capsys.readouterr().out
            with open(path, "rb") as stdin:
                monkeypatch.setattr("sys.stdin", stdin)
                assert main([*argv, "--input", "-"]) == 0
        assert capsys.readouterr().out == from_path
        assert fork.call_count == 1


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
