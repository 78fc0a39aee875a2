"""CSV ingestion and structured report serialization.

CSV files use a comma delimiter, optional quoting, UTF-8 text, and a
mandatory header row; columns are selected by header name only, never
by position, so a rotation report can never silently swap axes.  Values
must parse as finite decimals with a ``.`` separator (scientific
notation accepted, surrounding whitespace ignored); missing or malformed
cells, digit-group underscores (``1_0``) and non-ASCII digits are
errors, not imputed.

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
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import CsvFormatError, NonFiniteResultError
from .estimators import RotationResult
from .lattice import Dataset

__all__ = [
    "DerivedColumn",
    "ColumnSelection",
    "read_csv",
    "write_csv",
    "render",
    "write_report",
    "REPORT_SCHEMA",
]


@dataclass(frozen=True)
class DerivedColumn:
    """An interaction column computed row-wise as a product of selected
    columns, e.g. ``DerivedColumn("xy", ("x", "y"))``."""

    name: str
    factors: tuple[str, ...]


@dataclass(frozen=True)
class ColumnSelection:
    """Header names to ingest plus derived interaction definitions."""

    names: tuple[str, ...]
    derived: tuple[DerivedColumn, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "derived", tuple(self.derived))
        out_names = list(self.names) + [d.name for d in self.derived]
        if len(set(out_names)) != len(out_names):
            raise ValueError("duplicate output column names in selection")
        known = set(self.names)
        for d in self.derived:
            missing = [f for f in d.factors if f not in known]
            if missing:
                raise ValueError(
                    f"derived column {d.name!r} references unselected "
                    f"column(s) {missing}")


def read_csv(source: str | Path | IO[str], selection: ColumnSelection) -> Dataset:
    """Read selected columns (plus derived interactions) from CSV.

    Parameters
    ----------
    source : path or text stream
        CSV input with a header row.
    selection : ColumnSelection
        Columns to keep; every name must appear in the header.

    Returns
    -------
    Dataset
        Columns in selection order, derived columns appended.

    Raises
    ------
    CsvFormatError
        On a missing header name, a ragged row, a cell that is not a
        finite ASCII decimal (reported with its data row and column), or
        an empty data section.
    """
    if isinstance(source, (str, Path)):
        # utf-8-sig: tolerate a BOM without corrupting the first header name
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _read_csv_stream(handle, selection)
    return _read_csv_stream(source, selection)


def _read_csv_stream(stream: IO[str], selection: ColumnSelection) -> Dataset:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError("input has no header row") from None
    positions = {}
    for name in selection.names:
        if name not in header:
            raise CsvFormatError(f"header has no column named {name!r}",
                                 column=name)
        positions[name] = header.index(name)

    values: dict[str, list[float]] = {name: [] for name in selection.names}
    row_number = 0
    for row in reader:
        if not row:
            continue  # blank line
        row_number += 1
        if len(row) != len(header):
            raise CsvFormatError(
                f"row {row_number} has {len(row)} fields, header has "
                f"{len(header)}", row=row_number)
        for name in selection.names:
            cell = row[positions[name]]
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
            values[name].append(value)
    if row_number == 0:
        raise CsvFormatError("data section is empty")

    columns = {name: np.array(vals) for name, vals in values.items()}
    for d in selection.derived:
        product = np.ones(row_number)
        for factor in d.factors:
            product = product * columns[factor]
        columns[d.name] = product
    return Dataset(columns)


def write_csv(data: Dataset) -> bytes:
    """Serialize a dataset back to CSV with round-trip exact decimals."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(data.names)
    arrays = [data.column(name) for name in data.names]
    for i in range(data.n):
        writer.writerow(repr(float(col[i])) for col in arrays)
    return buffer.getvalue().encode("utf-8")


#: JSON schema for every report this package emits.  Commands fill the
#: blocks they produce; all blocks are optional but strictly typed.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "measures": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
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
                "standard": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "self_weighting": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "randomly_weighted": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "additionalProperties": {"type": "number"},
                    },
                },
            },
            "additionalProperties": False,
        },
        "simulation": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
    "additionalProperties": False,
}


def render_json(payload: Mapping) -> bytes:
    """Serialize a report payload with a stable layout."""
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _rotation_entry(rotation: RotationResult) -> dict:
    if rotation.ok:
        result = rotation.fit
        return {
            "response": rotation.response.label,
            "coefficients": [float(c) for c in result.coefficients],
            "denominator": float(result.denominator),
            "numerators": [float(n) for n in result.numerators],
            "sse": float(result.sse),
            "flag": result.condition_flag,
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
        return render_json(payload)
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
