"""Vertex sums, joins, and the determinant family over named data columns.

A *direction* is a multiset of column names; the empty multiset is the
constant measure 1 ("unity").  Over a dataset, the *vertex* of two
directions is the sum over rows of their product,

    V(a, b) = sum_i a_i * b_i,

so V(1, 1) = n, V(1, x) = sum(x), V(x, y) = sum(x * y), and so on.  A
:class:`Lattice` caches all pairwise vertices for a set of directions.
Products of vertex values ("joins") combine into signed 2x2 and 3x3
determinants; these carry the sufficient statistics for every least
squares fit in :mod:`latreg.estimators`:

    det2(a, b, c, d) = V(a,b) V(c,d) - V(a,d) V(c,b)

covers the variance family (for instance det2(1,1,x,x) = n sum(x^2) -
sum(x)^2, which is n^2 times the population variance), and 3x3
determinants over a vertex matrix cover the three-regressor systems.

Each vertex is the correctly rounded sum (:func:`math.fsum`) of the
per-row products, which are themselves already rounded to float; the
determinant formulas subtract near-equal products, so sloppier
accumulation would surface directly in the results.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (ColumnNotFoundError, EmptyDataError, MissingVertexError,
                     NonFiniteResultError)

__all__ = [
    "Direction",
    "UNITY",
    "Dataset",
    "Lattice",
    "DeterminantKind",
    "build_lattice",
    "join",
    "det2",
    "det3_general",
    "form_determinant",
    "scaled_sigma",
    "measure_catalog",
]


@dataclass(frozen=True, init=False)
class Direction:
    """A measure axis: unity (no factors), a column, or a product of columns.

    Factor order is irrelevant, so ``Direction("x", "y")`` equals
    ``Direction("y", "x")``.  Repeated factors are allowed and denote
    powers (``Direction("x", "x")`` is the x^2 axis).
    """

    factors: tuple[str, ...]

    def __init__(self, *factors: str):
        object.__setattr__(self, "factors", tuple(sorted(factors)))

    @property
    def is_unity(self) -> bool:
        return not self.factors

    @property
    def level(self) -> int:
        """Number of factors (0 for unity)."""
        return len(self.factors)

    @property
    def label(self) -> str:
        """Human-readable name: ``"1"``, ``"x"``, ``"x*y"``."""
        return "1" if self.is_unity else "*".join(self.factors)

    def __mul__(self, other: "Direction") -> "Direction":
        return Direction(*(self.factors + other.factors))

    def __repr__(self) -> str:
        return "Direction({})".format(", ".join(repr(f) for f in self.factors))


#: The constant measure 1.
UNITY = Direction()


class Dataset:
    """Named numeric columns of equal length n >= 1.

    Columns are stored as read-only float64 arrays; the dataset is
    immutable after construction and safe to share across threads.
    Degenerate but well-formed data (n = 1, constant columns) is accepted
    here; degeneracy only matters, and is diagnosed, when determinants
    are solved.
    """

    def __init__(self, columns: Mapping[str, Sequence[float] | np.ndarray]):
        if not columns:
            raise EmptyDataError("dataset has no columns")
        cols: dict[str, np.ndarray] = {}
        n: int | None = None
        for name, values in columns.items():
            arr = np.array(values, dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"column {name!r} has length {arr.shape[0]}, expected {n}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"column {name!r} contains non-finite values")
            arr.flags.writeable = False
            cols[name] = arr
        if n == 0:
            raise EmptyDataError("dataset has no rows")
        self._columns = cols
        self.n: int = int(n)  # type: ignore[arg-type]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name) from None

    def evaluate(self, direction: Direction) -> np.ndarray:
        """Per-row values of a direction: the product of its factor
        columns, or a vector of ones for unity."""
        out = np.ones(self.n)
        for factor in direction.factors:
            out = out * self.column(factor)
        return out

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, columns={list(self._columns)})"


def _vertex_key(a: Direction, b: Direction) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return (a.factors, b.factors) if a.factors <= b.factors else (b.factors, a.factors)


class Lattice:
    """Cached pairwise vertex sums V(a, b) over a dataset.

    Built eagerly by :func:`build_lattice`; immutable afterwards.  Each
    vertex combines exactly two directions, though the directions
    themselves may be products, so interaction terms induce higher-order
    sums.
    """

    def __init__(self, source: Dataset, directions: Sequence[Direction],
                 vertices: Mapping[tuple, float]):
        self.source = source
        self.directions = tuple(directions)
        self._vertices = dict(vertices)

    def vertex(self, a: Direction, b: Direction) -> float:
        """V(a, b); symmetric in its arguments."""
        try:
            return self._vertices[_vertex_key(a, b)]
        except KeyError:
            raise MissingVertexError(
                f"vertex ({a.label}, {b.label}) is not cached; "
                "rebuild the lattice with both directions") from None

    def __repr__(self) -> str:
        return "Lattice(n={}, directions=[{}])".format(
            self.source.n, ", ".join(d.label for d in self.directions))


def build_lattice(data: Dataset, directions: Sequence[Direction]) -> Lattice:
    """Compute all pairwise vertices over ``directions``.

    Parameters
    ----------
    data : Dataset
        Source observations.
    directions : sequence of Direction
        Axes to cache, which must be non-empty and include unity.
        Duplicates are dropped, order otherwise preserved.

    Returns
    -------
    Lattice
        Symmetric vertex cache; V(a, b) available for every pair.

    Raises
    ------
    ColumnNotFoundError
        If a direction names a column missing from ``data``.
    ValueError
        If ``directions`` is empty or unity is missing.
    """
    dirs: list[Direction] = []
    for d in directions:
        if d not in dirs:
            dirs.append(d)
    if not dirs:
        raise ValueError("directions must be non-empty")
    if UNITY not in dirs:
        raise ValueError("directions must include unity")

    values = {d: data.evaluate(d) for d in dirs}
    vertices: dict[tuple, float] = {}
    for i, a in enumerate(dirs):
        for b in dirs[i:]:
            vertices[_vertex_key(a, b)] = checked_fsum(
                values[a] * values[b], "vertex V({}, {})", a, b)
    return Lattice(data, dirs, vertices)


def checked_fsum(values: np.ndarray, name: str, *labelled) -> float:
    """:func:`math.fsum` of per-row values.  Where fsum raises instead of
    returning an infinity (a finite sum that overflows midway, or +inf
    and -inf together), a NonFiniteResultError names the sum: ``name``
    formatted with the labels of ``labelled``."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as err:
        name = name.format(*(x.label for x in labelled))
        raise NonFiniteResultError(
            f"{name} is outside the float range ({err})") from None


def lattice_over(source: Dataset | Lattice,
                 directions: Sequence[Direction]) -> Lattice:
    """A lattice caching every one of ``directions``.

    A :class:`Lattice` is returned as it is, so that callers sharing one
    lattice share its single data pass; a :class:`Dataset` gets a fresh
    :func:`build_lattice` over ``directions``.

    Raises
    ------
    MissingVertexError
        If ``source`` is a lattice built without one of ``directions``.
    """
    if not isinstance(source, Lattice):
        return build_lattice(source, directions)
    missing = [d.label for d in directions if d not in source.directions]
    if missing:
        raise MissingVertexError(
            "lattice has no direction(s) {}; rebuild it with every "
            "direction the request needs".format(", ".join(missing)))
    return source


def join(lat: Lattice, pairs: Sequence[tuple[Direction, Direction]]) -> float:
    """Product of two or three cached vertex values.

    ``join(lat, [(a, b), (c, d)])`` is the two-vertex join
    V(a,b) * V(c,d); a third pair gives the three-vertex join used by the
    3x3 determinants.
    """
    if len(pairs) not in (2, 3):
        raise ValueError(f"join takes 2 or 3 vertex pairs, got {len(pairs)}")
    return math.prod(lat.vertex(a, b) for a, b in pairs)


def det2(lat: Lattice, a: Direction, b: Direction,
         c: Direction, d: Direction) -> float:
    """Signed difference of joins: V(a,b) V(c,d) - V(a,d) V(c,b).

    Antisymmetric under swapping b and d: det2(a,b,c,d) = -det2(a,d,c,b).
    """
    return lat.vertex(a, b) * lat.vertex(c, d) - lat.vertex(a, d) * lat.vertex(c, b)


def vertex_matrix_det(lat: Lattice, rows: Sequence[Direction],
                      cols: Sequence[Direction]) -> float:
    """Determinant of the 1x1, 2x2 or 3x3 vertex matrix
    M[i][j] = V(rows[i], cols[j]): the vertex itself, :func:`det2` or
    :func:`det3_general` (which refuses any other shape)."""
    if len(rows) == len(cols) == 1:
        return lat.vertex(rows[0], cols[0])
    if len(rows) == len(cols) == 2:
        return det2(lat, rows[0], cols[0], rows[1], cols[1])
    return det3_general(lat, rows, cols)


def det3_general(lat: Lattice, rows: Sequence[Direction],
                 cols: Sequence[Direction]) -> float:
    """3x3 determinant of the vertex matrix M[i][j] = V(rows[i], cols[j]).

    Cofactor expansion along the first row; equal to the signed sum of
    the six three-vertex joins.
    """
    if len(rows) != 3 or len(cols) != 3:
        raise ValueError("det3_general takes exactly 3 row and 3 column directions")
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (
        [lat.vertex(r, c) for c in cols] for r in rows)
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


@dataclass(frozen=True)
class DeterminantKind:
    """A named member of the determinant family, given by its subscripts.

    ``subscripts`` lists (row, column) direction pairs of the vertex
    matrix, ``(r0, c0, r1, c1)`` for a 2x2 determinant and
    ``(r0, c0, r1, c1, r2, c2)`` for a 3x3 one, so the determinant is
    that of M[i][j] = V(subscripts[2i], subscripts[2j + 1]).  The paper's
    names are these subscripts: variance(x) is delta_11xx with
    subscripts (1, 1, x, x).  ``tag`` only names the kind.  Use the
    classmethod constructors.
    """

    tag: str
    subscripts: tuple[Direction, ...]

    @classmethod
    def variance(cls, a: Direction) -> "DeterminantKind":
        """n sum(a^2) - sum(a)^2, i.e. n^2 times the population variance."""
        return cls("variance", (UNITY, UNITY, a, a))

    @classmethod
    def covariance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """n sum(ab) - sum(a) sum(b), i.e. n^2 times the population covariance."""
        return cls("covariance", (UNITY, UNITY, a, b))

    @classmethod
    def internal_covariance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """sum(a) sum(b^2) - sum(b) sum(ab): the level-one/level-two mixed
        determinant with subscripts (1, a, b, b)."""
        return cls("internal_covariance", (UNITY, a, b, b))

    @classmethod
    def base_variance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """sum(a^2) sum(b^2) - sum(ab)^2: the level-two determinant that is
        the denominator of non-response estimates."""
        return cls("base_variance", (a, a, b, b))

    @classmethod
    def general2(cls, a: Direction, b: Direction,
                 c: Direction, d: Direction) -> "DeterminantKind":
        """Arbitrary four-subscript determinant V(a,b)V(c,d) - V(a,d)V(c,b)."""
        return cls("general2", (a, b, c, d))

    @classmethod
    def form1(cls, a: Direction, b: Direction, c: Direction) -> "DeterminantKind":
        """Symmetric 3x3 determinant with rows = cols = (a, b, c): the
        denominator of a three-regressor system."""
        return cls("form1", (a, a, b, b, c, c))

    @classmethod
    def form2(cls, a: Direction, b: Direction, c: Direction,
              d: Direction) -> "DeterminantKind":
        """form1(a, b, c) with the first column direction replaced by d:
        the numerator determinant of a three-regressor system.  Reduces to
        form1 when d = a."""
        return cls("form2", (a, d, b, b, c, c))


def form_determinant(lat: Lattice, kind: DeterminantKind) -> float:
    """Evaluate any member of the determinant family on a lattice: the
    :func:`vertex_matrix_det` over rows ``subscripts[0::2]`` and columns
    ``subscripts[1::2]``.
    """
    return vertex_matrix_det(lat, kind.subscripts[0::2], kind.subscripts[1::2])


def scaled_sigma(lat: Lattice, kind: DeterminantKind) -> float:
    """Determinant divided by n^2 (population-style scaling).

    Only defined for the 2x2 kinds (variance, covariance, internal
    covariance, base variance and general2); the n^2 factor is exactly
    what the named ones carry over the plain moment.
    """
    if len(kind.subscripts) != 4:
        raise ValueError(f"no sigma scaling for determinant kind {kind.tag!r}")
    n = lat.source.n
    return form_determinant(lat, kind) / float(n * n)


def measure_catalog(source: Dataset | Lattice,
                    columns: Sequence[str]) -> dict[str, float]:
    """All vertices and named determinants for two or three columns.

    ``source`` is a dataset, over which one lattice is built, or a
    lattice that already caches unity and every column's direction
    (:class:`MissingVertexError` otherwise).

    Returns an ordered mapping whose keys follow the subscript naming of
    the determinant family: ``v_1x`` for vertices, ``delta_`` plus a
    kind's subscript labels (``delta_11xx``) for determinants, and
    ``sigma_11xx`` for the delta / n^2 rescalings of the 2x2 kinds.
    Keys concatenate column names directly, so single-character column
    names read exactly like the subscripts.
    """
    if len(columns) not in (2, 3):
        raise ValueError("measure catalog requires 2 or 3 columns")
    if len(set(columns)) != len(columns):
        raise ValueError("measure catalog columns must be distinct")
    dirs = [Direction(c) for c in columns]
    lat = lattice_over(source, [UNITY, *dirs])

    out: dict[str, float] = {}
    axes = [UNITY, *dirs]
    for i, a in enumerate(axes):
        for b in axes[i:]:
            out[f"v_{a.label}{b.label}"] = lat.vertex(a, b)

    pairs = list(itertools.combinations(dirs, 2))
    kinds = [DeterminantKind.variance(a) for a in dirs]
    kinds += [DeterminantKind.covariance(a, b) for a, b in pairs]
    for a, b in pairs:
        kinds.append(DeterminantKind.internal_covariance(b, a))
        kinds.append(DeterminantKind.internal_covariance(a, b))
    kinds += [DeterminantKind.base_variance(a, b) for a, b in pairs]
    if len(dirs) == 3:
        kinds.append(DeterminantKind.form1(*dirs))

    keys = ["".join(d.label for d in kind.subscripts) for kind in kinds]
    for kind, key in zip(kinds, keys):
        out["delta_" + key] = form_determinant(lat, kind)
    for kind, key in zip(kinds, keys):
        if len(kind.subscripts) == 4:
            out["sigma_" + key] = scaled_sigma(lat, kind)
    return out
