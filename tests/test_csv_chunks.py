"""The chunked CSV reader against the per-cell reader it falls back to.

Each chunk of data lines is converted with one ``np.loadtxt`` call, and
any chunk that conversion might read differently goes to the per-cell
reader (``csv`` plus ``float()``).  These tests hold the two to the same
accept/reject set, the same values bit for bit, and the same reported
row and column, with the chunk size patched down to a few lines.
"""

import csv
import io
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latreg import CsvFormatError, LatregError, read_csv
from latreg import dataio
from latreg.cli import main

VALID_CELLS = ["0", "1", "-2.5", "3e4", "+.5", "5.", "-0", "1e-400", " 2 ",
               "\t7", "\x0b6\x0c", "4.9e-324", "1.7976931348623157e308",
               "0.100000000000000005551115123125782702118158340454101562"]
INVALID_CELLS = ["", " ", "abc", "1_0", "\u0663", "\uff11", "\xa02",
                 "\u20032", "0x10", "1e", "nan", "inf", "-inf", "1e999",
                 "\x1c1", "2\x1f", "1 2"]
TEXT_CELLS = ["apple", "", "a b", "1_0", "\u0663", "nan", "\x1c", "caf\xe9"]
QUOTED_NUMBERS = ['"1"', '" 2"', '"3e1"']
QUOTED_TEXT = ['"a,b"', '"a\nb"', '"say ""hi"""', '"3\r\n4"', '""']

numbers = st.one_of(
    st.sampled_from(VALID_CELLS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
              st.integers(0, 10 ** 30), st.integers(0, 10 ** 30),
              st.integers(-340, 320)),
)


@st.composite
def csv_documents(draw):
    """CSV text plus a column selection.

    Selected columns hold numbers and the others text or numbers.  Half
    the documents also quote cells.  Lines, blank ones included, end in
    LF, CRLF or CR, or in a mix of the three.  At most one fault is
    injected: an invalid selected cell, or a row one field short or long.
    """
    n_fields = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(n_fields)]
    names = draw(st.permutations(header))[:draw(st.integers(1, n_fields))]
    number_cell, text_cell = numbers, numbers | st.sampled_from(TEXT_CELLS)
    newline = st.sampled_from(draw(st.sampled_from(
        [["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]])))
    if draw(st.booleans()):
        number_cell = number_cell | st.sampled_from(QUOTED_NUMBERS)
        text_cell = text_cell | st.sampled_from(QUOTED_TEXT)

    rows = [[draw(number_cell if name in names else text_cell)
             for name in header]
            for _ in range(draw(st.integers(0, 12)))]
    fault = draw(st.sampled_from([None, "cell", "short", "long"]))
    if fault and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "cell":
            column = header.index(draw(st.sampled_from(names)))
            row[column] = draw(st.sampled_from(INVALID_CELLS))
        elif fault == "short":
            row.pop()
        else:
            row.append("9")

    head = list(header)
    if draw(st.booleans()):
        head[0] = f'"{head[0]}"'
    lines = [",".join(head) + draw(newline)]
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(newline))  # blank line
        lines.append(",".join(row) + draw(newline))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), tuple(names)


def outcome(text, selection, newline=""):
    """What a reader makes of ``text``, read through a StringIO with this
    ``newline``: every column's bytes, or the error's type, message, row
    and column."""
    try:
        data = read_csv(io.StringIO(text, newline=newline), selection)
    except LatregError as err:
        return (type(err).__name__, str(err), getattr(err, "row", None),
                getattr(err, "column", None))
    return [(name, data.column(name).tobytes()) for name in data.names]


@contextmanager
def field_size_limit(limit):
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def per_cell_outcome(text, selection, newline=""):
    """The reference: the whole input in one chunk, read per cell."""
    with mock.patch.object(dataio, "_CHUNK_CHARS", 1 << 30), \
            mock.patch.object(dataio, "_convert_chunk", return_value=None):
        return outcome(text, selection, newline)


class TestChunkedMatchesPerCell:

    @settings(max_examples=400, deadline=None)
    @given(document=csv_documents(), chunk_chars=st.integers(1, 64),
           limit=st.sampled_from([131072, 131072, 8]))
    def test_same_outcome(self, document, chunk_chars, limit):
        text, selection = document
        with field_size_limit(limit):
            expected = per_cell_outcome(text, selection)
            with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
                assert outcome(text, selection) == expected

    @pytest.mark.parametrize("cell", VALID_CELLS + INVALID_CELLS)
    def test_each_cell_in_a_plain_chunk(self, cell):
        text = f"x,y\n1,2\n3,{cell}\n4,5\n"
        selection = ("x", "y")
        assert outcome(text, selection) == per_cell_outcome(text, selection)

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"],
                             ids=["LF", "CRLF", "CR"])
    def test_clean_chunks_skip_the_per_cell_reader(self, eol):
        text = f"x,t,y{eol}" + "".join(f"{i},w{i},{i / 7!r}{eol}{eol}"
                                       for i in range(50))
        with mock.patch.object(dataio, "_CHUNK_CHARS", 40), \
                mock.patch.object(dataio, "_parse_cells",
                                  side_effect=AssertionError("per-cell")):
            data = read_csv(io.StringIO(text, newline=""),
                            ("y", "x"))
        assert data.column("x").tolist() == [float(i) for i in range(50)]
        assert data.column("y").tolist() == [i / 7 for i in range(50)]

    @pytest.mark.parametrize("line", ["1,2\r3,4\n", "1,2\r\r\n", "1\r,2\n",
                                      "\r\r\n", "1,2\r"])
    def test_carriage_return_inside_a_line(self, line):
        # A StringIO without newline="" splits lines at "\n" only, so a
        # "\r" can stand inside a line or before its end.
        text = f"x,y\n5,6\n{line}7,8\n"
        selection = ("x", "y")
        with mock.patch.object(dataio, "_CHUNK_CHARS", 4):
            chunked = outcome(text, selection, newline="\n")
        assert chunked == per_cell_outcome(text, selection, newline="\n")

    def test_quoted_field_spanning_a_chunk_boundary(self):
        text = 'x,t\n1,a\n2,"b\nc,d"\n3,e\n4,f\n'
        # The first chunk ends inside the quoted field.
        with mock.patch.object(dataio, "_CHUNK_CHARS", 8):
            data = read_csv(io.StringIO(text, newline=""),
                            ("x",))
        assert data.column("x").tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("bad_row", [2, 40])
    def test_error_row_counts_rows_of_earlier_chunks(self, bad_row):
        rows = ["1,2"] * 50
        rows[bad_row - 1] = "1,2,3"
        text = "x,y\n" + "\n".join(rows) + "\n"
        with mock.patch.object(dataio, "_CHUNK_CHARS", 16):
            with pytest.raises(CsvFormatError) as excinfo:
                read_csv(io.StringIO(text), ("x", "y"))
        assert excinfo.value.row == bad_row
        assert str(excinfo.value) == (f"row {bad_row} has 3 fields, "
                                      "header has 2")


LONG = "a" * 140000


class TestRefusedInput:
    """Text the decoder or the csv module refuses is a CsvFormatError."""

    @pytest.mark.parametrize("text, row", [
        (f'x,t\n1,a\n2,"{LONG}"\n', 2),
        (f"x,t\n1,a\n2,{LONG}\n", 2),
        (f'x,"{LONG}"\n1,2\n', None),
    ], ids=["quoted", "unquoted", "header"])
    def test_field_over_csv_limit(self, tmp_path, capsys, text, row):
        path = tmp_path / "long.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(CsvFormatError) as excinfo:
            read_csv(path, ("x",))
        assert excinfo.value.row == row
        assert "field larger than field limit" in str(excinfo.value)
        code = main(["means", "--input", str(path), "--columns", "x"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("good_lines", [1, dataio._CHUNK_CHARS // 2],
                             ids=["first-chunk", "later-chunk"])
    def test_undecodable_byte(self, tmp_path, capsys, good_lines):
        # Lines of 4 characters: the later byte follows two full chunks.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"x,y\n" + b"1,2\n" * good_lines + b"3,\xff4\n5,6\n")
        with pytest.raises(CsvFormatError) as excinfo:
            read_csv(path, ("x", "y"))
        assert "byte 0xff cannot be decoded" in str(excinfo.value)
        code = main(["rotate", "--input", str(path), "--columns", "x,y"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: input is not utf-8 text")
