"""CSV ingestion and structured report serialization.

CSV files use a comma delimiter, optional quoting, UTF-8 text, and a
mandatory header row.  Columns are selected by header name only, never
by position, so a rotation report can never silently swap axes; a
selected name must appear in the header exactly once.  A product such
as x*y is a lattice direction, not a stored column.  Values must parse
as finite decimals with a ``.`` separator (scientific notation
accepted, surrounding whitespace ignored); missing or malformed cells,
digit-group underscores (``1_0``) and non-ASCII digits are errors, not
imputed.  Text that cannot be decoded, and a record the :mod:`csv`
module refuses (a field over its size limit), are errors too.

The header is read with :mod:`csv`.  Data lines are then read in one
streaming pass, in chunks of about :data:`_CHUNK_CHARS` characters cut
at a line end, and each chunk's columns are converted in one
``np.loadtxt`` call.  :func:`read_lattice` folds each chunk's rows into
the exact lattice as they arrive, so no request holds the rows and
memory stays flat in their number; :func:`read_csv` collects them into
a :class:`Dataset`.  Each chunk is checked once as a whole (ASCII, no
``"``, no separator ``np.loadtxt`` strips but ``float()`` does not).
When the selection covers every header field, ``np.loadtxt`` converts
every field and itself refuses a ragged row, and the block's width must
be the header's field count; when it leaves fields out, every non-blank
line's field count is checked first, so that an unselected text field
is never converted.  After the call the block must have one row per
non-blank line, and every value must be finite.  The per-cell reader,
:mod:`csv` plus one ``float()`` per cell, runs only where that
conversion might not read the chunk as it would:

* from the first chunk holding a ``"`` to the end of the input, since
  quoted text may run past a chunk, and
* on any other chunk that fails a check or the conversion.  It then
  raises the positioned :class:`CsvFormatError` or, if the chunk is
  valid after all, gives the chunk's values.

The per-cell reader also yields blocks of at most :data:`_CELL_ROWS`
rows, so a quoted file streams in flat memory too.  Both readers accept
the same input and give the same values bit for bit.

:func:`read_lattice` reads a large file on two CPUs, the count that
was measured.  A vertex is a sum over rows of exact integers, so the
lattice of a file is the exact sum of the lattices of its parts.  The
file is cut into two byte ranges just after the first ``\n`` at or past
its middle.  The parent forks one worker for the second range; it folds
that range through the readers above, writes its partial lattice to a
pipe and leaves with ``os._exit``.  The parent reads the header and
folds the first range meanwhile, then adds the two partial lattices as
the fold adds its blocks, by one shift and one add per vertex.  The path
is opened once, and the ranges are read at their offsets, so a file read
serially after all is read from the same open file.  The file is read
serially where it is stdin or another stream or no regular file (a
named pipe), holds a ``"`` anywhere (a quoted field may span the cut;
the scan for it reads :data:`_SCAN_BYTES` at a time, so that file pages
do not swell RSS), is under two ranges of :data:`_RANGE_CHUNKS` chunks,
where fewer than two CPUs are usable, where the process runs other
threads, or where SIGCHLD is ignored or handled (the worker must stay
the parent's to reap).  If either range fails, the worker is killed and
reaped and the file is read again serially, which gives exactly the
serial message and row: the serial reader decodes ahead of its parse,
so a byte past the cut that cannot be decoded comes before a bad cell
just ahead of it.  A range without data rows fails too; the serial read
then gives the same lattice, or "data section is empty".  The worker is
reaped on every path.  Python 3.12 and later warn, in the parent, when
a process with threads (here OpenBLAS's pool) forks; that warning is
silenced for the fork alone, as explained at :func:`_fork`.

Every report is one payload in the :data:`REPORT_SCHEMA` layout, which
:func:`render` serializes to JSON (stable key order, shortest round-trip
decimals, so ``parse(write(r))`` reproduces every numeric bit-exactly)
or to text carrying the same numbers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import pickle
import signal
import stat
import threading
import warnings
from contextlib import ExitStack, contextmanager
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CsvFormatError, NonFiniteResultError
from .estimators import RotationResult
from .lattice import (Dataset, Direction, Lattice, _plan, _sum,
                      lattice_of_rows)

__all__ = [
    "read_csv",
    "read_lattice",
    "write_csv",
    "render",
    "write_report",
    "REPORT_SCHEMA",
]

#: Characters read per chunk of data lines; a chunk runs on to the end
#: of the line it stops in.  Each chunk is one ``np.loadtxt`` call, and
#: its text, its lines, its values and one lattice block are all of the
#: input alive at once.  While a chunk's text is within the ``csv`` field size limit
#: (131072 by default), none of its lines can exceed it, so at this size
#: the line lengths are rarely scanned.
_CHUNK_CHARS = 1 << 16

#: Rows in each block the per-cell reader yields.
_CELL_ROWS = 1 << 12

#: ASCII separators that ``np.loadtxt`` strips around a number but
#: ``float()`` does not; a chunk holding one goes to the per-cell reader.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def read_csv(source: str | Path | IO[str] | IO[bytes],
             names: Sequence[str]) -> Dataset:
    """Read the named columns from CSV.

    Parameters
    ----------
    source : path, binary stream or text stream
        CSV input with a header row.  A path or a binary stream (such as
        ``sys.stdin.buffer``) is decoded as UTF-8, with or without a
        BOM.  Data lines may end in LF, CRLF or CR.
    names : sequence of str
        Distinct header names of the columns to keep.  A product x*y is
        no column but ``Direction("x", "y")``, evaluated by the lattice.

    Returns
    -------
    Dataset
        The named columns, in the order of ``names``.

    Raises
    ------
    TypeError
        If ``names`` is a str, whose characters would each name a column.
    ValueError
        If ``names`` repeats a name.
    CsvFormatError
        On a name the header lacks or repeats, a ragged row, a cell that
        is not a finite ASCII decimal (reported with its data row and
        column), a record the :mod:`csv` module refuses (such as a field
        over its size limit, reported with its data row), text that
        cannot be decoded, or an empty data section.
    """
    names = _selection(names)
    # Every block goes into one table that ndarray.resize grows in place
    # (realloc; no view of it exists meanwhile), so no block outlives its
    # turn.  Blocks kept to the end and then freed left the heap
    # fragmented, and peak RSS then followed the heap's layout.
    table, end = np.empty((0, len(names))), 0
    with _text(source) as stream:
        for block in _blocks(stream, names):
            start, end = end, end + len(block)
            if end > len(table):
                table.resize((max(2 * len(table), end), len(names)),
                             refcheck=False)
            table[start:end] = block
    table.resize((end, len(names)), refcheck=False)
    return Dataset._of_table(names, table.T)  # its values are checked finite


def read_lattice(source: str | Path | IO[str] | IO[bytes],
                 names: Sequence[str],
                 directions: Sequence[Direction]) -> Lattice:
    """``build_lattice(read_csv(source, names), directions)`` in one
    streaming pass: each chunk of rows is folded into the exact vertices
    as it is parsed, and no row outlives its chunk, so memory stays flat
    in the number of rows.  A large file is read as two byte ranges, on
    two CPUs, whose exact lattices are added (see the module notes); where
    either range fails or holds no rows, it is read serially after all.

    ``source`` and ``names`` are as in :func:`read_csv`, which gives the
    same errors; the lattice is the same, exactly.  ``directions`` must
    be non-empty, include unity and read only columns in ``names`` (else
    ``ValueError`` or :class:`~latreg.errors.ColumnNotFoundError`, before
    ``source`` is opened or read).
    """
    names = _selection(names)
    _plan(tuple(directions), names)  # raises before the source is opened
    # A path is opened once: a named pipe's data is gone once its reader
    # closes it, and the path may be replaced meanwhile.
    with _text(source) as stream:
        if isinstance(source, (str, Path)):
            lattice = _read_ranges(stream.buffer.fileno(), names, directions)
            if lattice is not None:
                return lattice
        return lattice_of_rows(_blocks(stream, names), names, directions)


def _read_ranges(fd: int, names: tuple[str, ...],
                 directions: Sequence[Direction]) -> Lattice | None:
    """The lattice of the file open at ``fd`` read as two byte ranges, the
    first here and the second by a forked worker, or None where the file
    is to be read serially: where :func:`_cut` gives no cut, or where
    either range fails, so that the serial read gives the error.  A range
    without rows fails too, as "data section is empty"; the serial read
    then gives the same lattice, or that error for the whole file.  The
    partial lattices are added by :func:`~latreg.lattice._sum`, as the
    fold adds its blocks.  The file is read at offsets only, so its
    position stays at the start for that read."""
    cut = _cut(fd)
    if cut is None:
        return None
    worker = None  # (pid, read end of its pipe) until it is reaped
    try:
        with io.BufferedReader(_Range(fd, 0, cut)) as head, \
                _text(head) as stream:
            fields = _header(stream, names)
            worker = _fork(_fold_range, fd, cut, os.fstat(fd).st_size,
                           fields, names, directions)
            first = lattice_of_rows(_data(stream, *fields, names), names,
                                    directions)
        pid, pipe = worker
        with open(pipe, "rb", closefd=False) as reader:
            payload = reader.read()
        status = os.waitpid(pid, 0)[1]
        worker = None
        os.close(pipe)
        if os.waitstatus_to_exitcode(status):
            return None
    # OSError: a fork the host refused
    except (CsvFormatError, OSError):
        return None
    finally:
        # No other code reaps this child: _cut splits only while SIGCHLD
        # has its default action and no other thread runs.
        if worker is not None:
            pid, pipe = worker
            os.close(pipe)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _sum(first, pickle.loads(payload))  # from this module's worker


#: Each byte range holds at least this many chunks (1 MB), so that a
#: split's fixed cost (a fork, the pages both processes then copy on
#: write, a pipe, a partial lattice; about 15 ms on 2 vCPUs) stays below
#: what the second CPU saves.  On that host ``rotate`` lost to the serial
#: read on a 1 MB file, broke even at 1.5 MB and gained from 2 MB on.
_RANGE_CHUNKS = 16

#: Bytes per read of the scan for quotes and the cut.  The scan holds no
#: more of the file than this at once; an mmap of the file would count
#: its pages in RSS.
_SCAN_BYTES = 1 << 16


def _cut(fd: int) -> int | None:
    """The offset just after the first ``\n`` at or past the middle of the
    regular file open at ``fd``, which cuts it into two byte ranges; or
    None where the file is read serially.  It is so read unless two CPUs
    are usable and each range can hold ``_RANGE_CHUNKS`` chunks.  A file
    holding a ``"`` is read serially, since a quoted field may span the
    cut; so is any file in a process running other threads, which a fork
    would not copy, or one whose SIGCHLD is ignored or handled, since the
    worker must stay the parent's to reap."""
    if (not hasattr(os, "sched_getaffinity") or threading.active_count() > 1
            or signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL):
        return None
    info = os.fstat(fd)
    if (len(os.sched_getaffinity(0)) < 2 or not stat.S_ISREG(info.st_mode)
            or info.st_size < 2 * _RANGE_CHUNKS * _CHUNK_CHARS):
        return None
    middle, cut, offset = info.st_size // 2, None, 0
    while block := os.pread(fd, _SCAN_BYTES, offset):
        if b'"' in block:
            return None
        if cut is None and offset + len(block) > middle:
            end = block.find(b"\n", max(middle - offset, 0))
            cut = offset + end + 1 if end >= 0 else None
        offset += len(block)
    return cut if cut is not None and cut < offset else None


class _Range(io.RawIOBase):
    """Bytes ``start`` to ``end`` of the file open at ``fd``, read at their
    offsets, so that readers of one file's ranges share no position."""

    def __init__(self, fd: int, start: int, end: int):
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        size = os.preadv(self._fd, [memoryview(buffer)[:self._end - self._at]],
                         self._at)
        self._at += size
        return size


def _fork(work, *args) -> tuple[int, int]:
    """A forked worker that writes the bytes ``work(*args)`` gives to a
    pipe and exits 0, or exits 1 on any error: its pid and the pipe's
    read end."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # CPython 3.12+ warns here, in the parent, that a fork of a
            # process with threads (OpenBLAS's pool) may deadlock the
            # child; under -W error that would raise with the child alive.
            # The child runs only this module's parse and the lattice
            # fold, then os._exit, and OpenBLAS quiesces its pool at fork.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            payload = memoryview(work(*args))
            while payload:
                payload = payload[os.write(write, payload):]
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _fold_range(fd: int, start: int, end: int, fields: tuple[int, list[int]],
                names: tuple[str, ...], directions: Sequence[Direction]) -> bytes:
    """The pickled partial lattice of the data lines in bytes ``start`` to
    ``end`` of the file open at ``fd``.  Plain UTF-8: a BOM is only one at
    the start of the file, and elsewhere a cell that is not a decimal."""
    with io.BufferedReader(_Range(fd, start, end)) as raw, \
            _text(raw, "utf-8") as stream:
        return pickle.dumps(lattice_of_rows(_data(stream, *fields, names),
                                            names, directions))


def _selection(names: Sequence[str]) -> tuple[str, ...]:
    if isinstance(names, str):
        raise TypeError(f"names must be a sequence, not the str {names!r}")
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"column {name!r} is selected more than once")
    return names


@contextmanager
def _text(source: str | Path | IO[str] | IO[bytes],
          encoding: str = "utf-8-sig") -> Iterator[IO[str]]:
    """``source`` as a text stream, open for the ``with`` block; a path is
    closed after it, a caller's stream is left open.  Text that cannot be
    decoded raises :class:`CsvFormatError`."""
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            source = stack.enter_context(open(source, "rb"))
        if isinstance(source, io.BufferedIOBase):
            # utf-8-sig: tolerate a BOM without corrupting the first header name
            source = io.TextIOWrapper(source, encoding=encoding, newline="")
            stack.callback(source.detach)  # leaves a caller's stream open
        try:
            yield source
        except UnicodeDecodeError as err:
            raise CsvFormatError(
                f"input is not {err.encoding} text: byte "
                f"{err.object[err.start]:#04x} cannot be decoded "
                f"({err.reason})") from None


def _blocks(stream: IO[str], names: tuple[str, ...]) -> Iterator[np.ndarray]:
    """The named columns of the data rows after the header, as (r, k)
    float64 blocks in row order: the serial read.  The header is read with
    :mod:`csv`, the rest by :func:`_data`."""
    yield from _data(stream, *_header(stream, names), names)


def _header(stream: IO[str], names: tuple[str, ...]) -> tuple[int, list[int]]:
    """The header's field count and each named column's place in it, read
    from ``stream`` with :mod:`csv`."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("input has no header row") from None
    except csv.Error as err:
        raise CsvFormatError(f"header row: {err}") from None
    for name in names:
        if header.count(name) != 1:
            raise CsvFormatError(
                f"header has no column named {name!r}" if name not in header
                else f"header names column {name!r} more than once",
                column=name)
    return len(header), [header.index(name) for name in names]


def _data(stream: IO[str], n_fields: int, usecols: list[int],
          names: tuple[str, ...]) -> Iterator[np.ndarray]:
    """The selected columns of the data lines that make up the rest of
    ``stream``, as (r, k) float64 blocks in row order.  No rows raise
    "data section is empty": of a stream, the error of the whole input;
    of a byte range, a failure that sends the file to the serial read."""
    row = 1
    chunks = _chunks(stream)
    for text in chunks:
        if '"' in text:
            # A quoted field may run past this chunk, so the per-cell
            # reader takes the rest of the stream.
            blocks = _parse_cells(chain([text], chunks), n_fields, usecols,
                                  names, row - 1)
        else:
            block = _convert_chunk(text, n_fields, usecols)
            blocks = ([block] if block is not None else
                      _parse_cells([text], n_fields, usecols, names,
                                   row - 1))
        for block in blocks:
            if len(block):
                yield block
                row += len(block)
    if row == 1:
        raise CsvFormatError("data section is empty")


def _chunks(stream: IO[str]) -> Iterator[str]:
    """The rest of ``stream`` in pieces of about ``_CHUNK_CHARS``
    characters, each ending at a line end (or at the end of input)."""
    while text := stream.read(_CHUNK_CHARS):
        if text[-1] not in "\r\n":
            text += stream.readline()
        yield text


def _convert_chunk(text: str, n_fields: int,
                   usecols: list[int]) -> np.ndarray | None:
    """The selected cells of unquoted CSV lines as an (n, k) array, or
    None when the per-cell reader must decide.

    None is returned for any chunk that reader might read differently:
    non-ASCII text, a separator that ``np.loadtxt`` strips but
    ``float()`` does not, a line the ``csv`` module would refuse as too
    long, a row with the wrong field count, a cell ``np.loadtxt``
    rejects, or a value that is not finite.  When the selection covers
    every field, ``np.loadtxt`` itself refuses a ragged row, and the
    block's width checks the header's field count; otherwise each line's
    field count is checked, so that an unselected text field is never
    converted.
    """
    if not text.isascii() or any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    if "\r" in text:  # lines end at LF alone from here on
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    every_field = len(usecols) == n_fields
    if not every_field and any(line.count(",") != n_fields - 1
                               for line in lines if line):
        return None
    if not any(lines):
        return np.empty((0, len(usecols)))
    try:
        block = np.loadtxt(lines, delimiter=",", dtype=float, ndmin=2,
                           comments=None, quotechar=None,
                           usecols=None if every_field else usecols)
    except ValueError:
        return None
    # csv.reader and np.loadtxt both skip blank lines, so they are not
    # rows.  The row count guards the alignment of rows and their
    # numbers, should np.loadtxt skip a line that csv.reader reads.
    rows = len(lines) - (lines[-1] == "")
    if len(block) != rows:
        rows = len(lines) - lines.count("")
    width = n_fields if every_field else len(usecols)
    if block.shape != (rows, width) or not np.isfinite(block).all():
        return None
    if every_field and usecols != sorted(usecols):
        block = block[:, usecols]
    return block


def _parse_cells(chunks: Iterable[str], n_fields: int, usecols: list[int],
                 names: Sequence[str],
                 row_offset: int) -> Iterator[np.ndarray]:
    """The selected cells of chunks of CSV text, split into lines as
    ``csv`` splits them (at LF, CRLF and CR), read record by record with
    the ``csv`` module and converted one ``float()`` at a time, as (n, k)
    blocks of at most ``_CELL_ROWS`` rows.  Data rows are numbered from
    ``row_offset + 1`` in errors."""
    values: list[float] = []
    row_number = block_start = row_offset
    try:
        for row in csv.reader(chain.from_iterable(
                io.StringIO(text, newline="") for text in chunks)):
            if not row:
                continue  # blank line
            row_number += 1
            if len(row) != n_fields:
                raise CsvFormatError(
                    f"row {row_number} has {len(row)} fields, header has "
                    f"{n_fields}", row=row_number)
            for name, position in zip(names, usecols):
                cell = row[position]
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                # float() also reads "1_0" as 10 and non-ASCII digits as
                # decimals; neither is a finite decimal under the contract.
                if not math.isfinite(value) or "_" in cell or not cell.isascii():
                    raise CsvFormatError(
                        f"row {row_number}, column {name!r}: "
                        f"value {cell!r} is not a finite number",
                        row=row_number, column=name)
                values.append(value)
            if row_number - block_start == _CELL_ROWS:
                yield np.array(values).reshape(_CELL_ROWS, len(usecols))
                values, block_start = [], row_number
    except csv.Error as err:
        raise CsvFormatError(f"row {row_number + 1}: {err}",
                             row=row_number + 1) from None
    yield np.array(values, dtype=float).reshape(row_number - block_start,
                                                len(usecols))


def write_csv(data: Dataset) -> bytes:
    """Serialize a dataset back to CSV with round-trip exact decimals."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(data.names)
    arrays = [data.column(name) for name in data.names]
    for i in range(data.n):
        writer.writerow(repr(float(col[i])) for col in arrays)
    return buffer.getvalue().encode("utf-8")


#: A block of numbers by name, as in the ``measures`` block.
_NUMBERS = {"type": "object", "additionalProperties": {"type": "number"}}

#: JSON schema for every report this package emits.  Commands fill the
#: blocks they produce; all blocks are optional but strictly typed.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "measures": _NUMBERS,
        "rotations": {
            "type": "array",
            "items": {
                "oneOf": [
                    {
                        "type": "object",
                        "properties": {
                            "response": {"type": "string"},
                            "coefficients": {
                                "type": "array", "items": {"type": "number"},
                            },
                            "denominator": {"type": "number"},
                            "numerators": {
                                "type": "array", "items": {"type": "number"},
                            },
                            "sse": {"type": "number"},
                            "flag": {"enum": ["well-posed"]},
                        },
                        "required": ["response", "coefficients", "denominator",
                                     "numerators", "sse", "flag"],
                        "additionalProperties": False,
                    },
                    {
                        "type": "object",
                        "properties": {
                            "response": {"type": "string"},
                            "error": {"type": "string"},
                            "flag": {"enum": ["singular"]},
                        },
                        "required": ["response", "error", "flag"],
                        "additionalProperties": False,
                    },
                ],
            },
        },
        "means": {
            "type": "object",
            "properties": {
                "standard": _NUMBERS,
                "self_weighting": _NUMBERS,
                "randomly_weighted": {
                    "type": "object", "additionalProperties": _NUMBERS,
                },
            },
            "additionalProperties": False,
        },
        "simulation": _NUMBERS,
    },
    "additionalProperties": False,
}


def _rotation_entry(rotation: RotationResult) -> dict:
    if rotation.ok:
        result = rotation.fit
        return {
            "response": rotation.response.label,
            "coefficients": [float(c) for c in result.coefficients],
            "denominator": float(result.denominator),
            "numerators": [float(n) for n in result.numerators],
            "sse": float(result.sse),
            "flag": "well-posed",
        }
    return {
        "response": rotation.response.label,
        "error": str(rotation.error),
        "flag": "singular",
    }


def _leaves(value, name: str = ""):
    """(name, scalar) pairs under a payload value, named like
    ``randomly_weighted[x][y]``: the first key as it is, each deeper
    mapping key or list index in brackets."""
    if isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        yield name, value
        return
    for key, inner in items:
        yield from _leaves(inner, f"{name}[{key}]" if name else str(key))


_ROTATION_COLUMNS = ("response", "coefficients", "denominator", "numerators",
                     "sse", "flag")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ", ".join(repr(v) for v in value)
    return repr(value)


def _format_table(rows: list[list[str]]) -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in rows]


def render(payload: Mapping, format: str) -> bytes:
    """Render a :data:`REPORT_SCHEMA` payload as ``"json"`` or ``"text"``.

    JSON keeps every block in payload order.  Text draws ``rotations``
    first, as an aligned table (a failed rotation shows its error under
    coefficients), then every other block as ``name = value`` lines with
    nested keys written ``name[key]``; an empty block is left out of the
    text.  Both carry the same numbers at full precision.

    Raises
    ------
    NonFiniteResultError
        If any number in the payload is nan or infinite.
    ValueError
        If ``format`` is neither ``"text"`` nor ``"json"``.
    """
    if format not in ("text", "json"):
        raise ValueError(f"unknown report format {format!r}")
    for name, leaf in _leaves(payload):
        if isinstance(leaf, float) and not math.isfinite(leaf):
            raise NonFiniteResultError(
                f"report value {name} is {leaf!r}, not a finite number")
    if format == "json":
        return (json.dumps(payload, indent=2, allow_nan=False)
                + "\n").encode("utf-8")
    lines = []
    for block in sorted(payload, key=lambda b: b != "rotations"):
        value = payload[block]
        if not value:
            continue
        lines.append(f"{block}:")
        if block == "rotations":
            rows = [list(_ROTATION_COLUMNS)]
            for entry in value:
                if "error" in entry:
                    entry = dict(entry, coefficients=entry["error"])
                rows.append([_cell(entry.get(c, "-")) for c in _ROTATION_COLUMNS])
            lines += ["  " + line for line in _format_table(rows)]
        else:
            lines += [f"  {name} = {leaf!r}" for name, leaf in _leaves(value)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_report(rotations: Sequence[RotationResult],
                 measures: Mapping[str, float] | None = None,
                 format: str = "text") -> bytes:
    """Serialize fit rotations plus lattice measures through :func:`render`.

    ``format`` is ``"text"`` (aligned table plus a measures block) or
    ``"json"`` (the :data:`REPORT_SCHEMA` layout).  Both carry the same
    numbers at full precision.  ``rotations`` must be non-empty.
    """
    if not rotations:
        raise ValueError("report requires at least one fit result")
    return render({
        "measures": {k: float(v) for k, v in (measures or {}).items()},
        "rotations": [_rotation_entry(r) for r in rotations],
    }, format)
