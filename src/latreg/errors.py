"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "LatregError",
    "ColumnNotFoundError",
    "EmptyDataError",
    "MissingVertexError",
    "ZeroWeightError",
    "NonFiniteResultError",
    "SingularSystemError",
    "CsvFormatError",
    "FormulaError",
]


class LatregError(ValueError):
    """Base class for all errors raised by this package."""


class ColumnNotFoundError(LatregError):
    """A direction or selection refers to a column the dataset lacks."""

    def __init__(self, name: str):
        super().__init__(f"unknown column {name!r}")
        self.name = name


class EmptyDataError(LatregError):
    """The dataset has no rows or no columns."""


class MissingVertexError(LatregError):
    """A requested vertex pair was not cached when the lattice was built."""


class ZeroWeightError(LatregError):
    """The weight sum V(a, b) in a mean-operator denominator is zero."""


class NonFiniteResultError(LatregError):
    """An exact result is outside the float range when rounded, or a
    report would carry nan or an infinity."""


class SingularSystemError(LatregError):
    """The normal equations are singular: the exact system determinant
    is 0."""


class CsvFormatError(LatregError):
    """Malformed CSV input.

    ``row`` (1-based data row, header excluded) and ``column`` are set when
    the problem is tied to a single cell.
    """

    def __init__(self, message: str, row: int | None = None,
                 column: str | None = None):
        super().__init__(message)
        self.row = row
        self.column = column


class FormulaError(LatregError):
    """Model-expression syntax error.

    ``position`` is the 0-based offset of the offending character in the
    expression text.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
