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

The header is read with :mod:`csv`.  Data lines are then read in chunks
of about :data:`_CHUNK_CHARS` characters, and each chunk's selected
columns are converted in one ``np.loadtxt`` call.  Before the call,
every non-blank line must have the header's field count; after it,
every value must be finite.  The per-cell reader, :mod:`csv` plus one
``float()`` per cell, runs only where that conversion might not read
the chunk as it would:

* from the first chunk holding a ``"`` to the end of the input, since
  quoted text may run past a chunk, and
* on any other chunk that is not plain ASCII, holds a separator
  ``np.loadtxt`` strips but ``float()`` does not, or fails a check or
  the conversion.  It then raises the positioned :class:`CsvFormatError`
  or, if the chunk is valid after all, returns the chunk's values.

Both readers accept the same input and give the same values bit for bit.

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
from contextlib import ExitStack
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import CsvFormatError, NonFiniteResultError
from .estimators import RotationResult
from .lattice import Dataset

__all__ = [
    "read_csv",
    "write_csv",
    "render",
    "write_report",
    "REPORT_SCHEMA",
]

#: Characters of data lines read per chunk (``readlines`` hint).  Each
#: chunk is one ``np.loadtxt`` call; its text and line objects are all of
#: the input alive at once.  While a chunk's text is within the ``csv``
#: field size limit (131072 by default), none of its lines can exceed it,
#: so at this size the line lengths are rarely scanned.
_CHUNK_CHARS = 1 << 16

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
        BOM, and its lines may end in LF, CRLF or CR.
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
    if isinstance(names, str):
        raise TypeError(f"names must be a sequence, not the str {names!r}")
    names = tuple(names)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"column {name!r} is selected more than once")
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            source = stack.enter_context(open(source, "rb"))
        if isinstance(source, io.BufferedIOBase):
            # utf-8-sig: tolerate a BOM without corrupting the first header name
            source = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
            stack.callback(source.detach)  # leaves a caller's stream open
        try:
            return _read_csv_stream(source, names)
        except UnicodeDecodeError as err:
            raise CsvFormatError(
                f"input is not {err.encoding} text: byte "
                f"{err.object[err.start]:#04x} cannot be decoded "
                f"({err.reason})") from None


def _read_csv_stream(stream: IO[str], names: tuple[str, ...]) -> Dataset:
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
    usecols = [header.index(name) for name in names]

    # Every chunk's rows go into one table that ndarray.resize grows in
    # place (realloc; no view of it exists meanwhile), so no chunk's block
    # outlives its chunk.  Blocks kept to the end and then freed left the
    # heap fragmented, and peak RSS then followed the heap's layout.
    table = np.empty((0, len(names)))
    n_rows = 0
    for lines in iter(lambda: stream.readlines(_CHUNK_CHARS), []):
        text = "".join(lines)
        quoted = '"' in text
        if quoted:
            # A quoted field may run past this chunk, so the per-cell
            # reader takes the rest of the stream.
            block = _parse_cells(chain(lines, stream), len(header), usecols,
                                 names, n_rows)
        else:
            block = _convert_chunk(lines, text, len(header), usecols)
            if block is None:
                block = _parse_cells(lines, len(header), usecols, names,
                                     n_rows)
        if n_rows + len(block) > len(table):
            table.resize((max(2 * len(table), n_rows + len(block)),
                          len(names)), refcheck=False)
        table[n_rows:n_rows + len(block)] = block
        n_rows += len(block)
        if quoted:
            break
    if n_rows == 0:
        raise CsvFormatError("data section is empty")
    table.resize((n_rows, len(names)), refcheck=False)
    return Dataset({name: table[:, i] for i, name in enumerate(names)})


def _convert_chunk(lines: list[str], text: str, n_fields: int,
                   usecols: list[int]) -> np.ndarray | None:
    """The selected cells of unquoted CSV lines as an (n, k) array, or
    None when the per-cell reader must decide.

    None is returned for any chunk that reader might read differently:
    non-ASCII text, a separator that ``np.loadtxt`` strips but
    ``float()`` does not, a line the ``csv`` module would refuse as too
    long, a row with the wrong field count, a cell ``np.loadtxt``
    rejects, or a value that is not finite.
    """
    if not text.isascii() or any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    # csv.reader skips blank lines, so they are not rows.
    rows = lines
    if "\n" in lines or "\r\n" in lines or "\r" in lines:
        rows = [line for line in lines if line not in ("\n", "\r\n", "\r")]
    if not rows or set(map(str.count, rows, repeat(","))) != {n_fields - 1}:
        return None
    try:
        block = np.loadtxt(rows, delimiter=",", usecols=usecols, dtype=float,
                           ndmin=2, comments=None, quotechar=None)
    except ValueError:
        return None
    # np.loadtxt skips empty lines on its own; the row count guards the
    # alignment of rows and their numbers should it skip any other.
    if len(block) != len(rows) or not np.isfinite(block).all():
        return None
    return block


def _parse_cells(lines: Iterable[str], n_fields: int, usecols: list[int],
                 names: Sequence[str], row_offset: int) -> np.ndarray:
    """The selected cells of CSV lines, read record by record with the
    ``csv`` module and converted one ``float()`` at a time, as an (n, k)
    array.  Data rows are numbered from ``row_offset + 1`` in errors."""
    values: list[float] = []
    row_number = row_offset
    try:
        for row in csv.reader(lines):
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
    except csv.Error as err:
        raise CsvFormatError(f"row {row_number + 1}: {err}",
                             row=row_number + 1) from None
    return np.array(values, dtype=float).reshape(row_number - row_offset,
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
                            "flag": {
                                "enum": ["well-posed", "near-singular"],
                            },
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
