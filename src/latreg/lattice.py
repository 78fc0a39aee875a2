"""Vertex sums, joins, and the determinant family over named data columns.

A *direction* is a multiset of column names; the empty multiset is the
constant measure 1 ("unity").  Over a dataset, the *vertex* of two
directions is the sum over rows of their product,

    V(a, b) = sum_i a_i * b_i,

so V(1, 1) = n, V(1, x) = sum(x), V(x, y) = sum(x * y), and so on.  A
:class:`Lattice` caches all pairwise vertices for a set of directions,
and :meth:`Lattice.matrix` reads them as one integer matrix G.  Every
determinant of the family is a minor of G, taken by its closed form
(:func:`minor`), and these carry the sufficient statistics for every
least squares fit in :mod:`latreg.estimators`:

    det2(a, b, c, d) = V(a,b) V(c,d) - V(a,d) V(c,b)

covers the variance family (for instance det2(1,1,x,x) = n sum(x^2) -
sum(x)^2, which is n^2 times the population variance), and 3x3 minors
cover the three-regressor systems.  Over (1, x, y) the six catalog
determinants are the six distinct cofactors of G, and the fits of
every rotation are the rows of its cofactor matrix.

Every vertex is exact: V = G 2^scale, G an integer matrix and ``scale``
one exponent for the whole lattice, so an r x r minor of G carries
2^(r scale).  :func:`build_lattice` sums G from 20-bit limbs of the
data held as float64, in matrix products whose partial sums are all
integers below 2^53 (the error-free splitting of Ozaki, Ogita, Oishi &
Rump, Numer. Algorithms 59, 2012).  A block's limbs take one exact
``np.ldexp`` scaling, a product's int64 limb products, and each
direction set's layout is cached.
Determinants, means and fits built from the vertices are exact and
rounded once, when read; only that rounding can leave the float range,
and then a :class:`NonFiniteResultError` names the value.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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

    The columns are the rows of one read-only float64 table, so the
    dataset is immutable after construction and safe to share across
    threads.  Degenerate but well-formed data (n = 1, constant columns)
    is accepted here; degeneracy only matters, and is diagnosed, when
    determinants are solved.
    """

    def __init__(self, columns: Mapping[str, Sequence[float] | np.ndarray]):
        if not columns:
            raise EmptyDataError("dataset has no columns")
        try:
            table = np.array(list(columns.values()), dtype=float)
        except ValueError:  # ragged: the checks below name the column
            table = np.empty(0)
        if table.ndim != 2 or not np.isfinite(table).all():
            first = np.asarray(next(iter(columns.values())), dtype=float)
            for name, values in columns.items():
                arr = np.asarray(values, dtype=float)
                if arr.ndim != 1:
                    raise ValueError(f"column {name!r} is not one-dimensional")
                if arr.shape != first.shape:
                    raise ValueError(f"column {name!r} has length {len(arr)}, "
                                     f"expected {len(first)}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"column {name!r} contains non-finite values")
        self._hold(columns, table)

    @classmethod
    def _of_table(cls, names: Sequence[str], table: np.ndarray) -> "Dataset":
        """A dataset over ``table`` itself, a (k, n) array of finite floats
        with a row per name of ``names``, without a copy."""
        data = cls.__new__(cls)
        data._hold(names, table)
        return data

    def _hold(self, names: Iterable[str], table: np.ndarray) -> None:
        if table.shape[1] == 0:
            raise EmptyDataError("dataset has no rows")
        table.flags.writeable = False
        self._table = table
        self._columns = dict(zip(names, table))
        self.n: int = table.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnNotFoundError(name) from None

    def evaluate(self, direction: Direction) -> np.ndarray:
        """Per-row values of a direction: the product of its factor columns
        (a one-factor direction's read-only column itself), or ones."""
        if direction.is_unity:
            return np.ones(self.n)
        return functools.reduce(np.multiply, map(self.column, direction.factors))

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, columns={list(self._columns)})"


def rounded(num: int, exp: int, name: str, *args, den: int = 1) -> float:
    """``num * 2**exp / den`` for integers ``num`` and ``den != 0``,
    correctly rounded once; outside the float range a
    :class:`NonFiniteResultError` names it as ``name.format(*args)``."""
    try:
        return (num << exp) / den if exp >= 0 else num / (den << -exp)
    except OverflowError:
        raise NonFiniteResultError(
            f"{name.format(*args)} is outside the float range") from None


class Lattice:
    """Exact pairwise vertices V(a, b) over a dataset, built by
    :func:`build_lattice`; immutable.  The directions may be products, so
    interaction terms induce higher-order sums.  V(a, b) is the integer
    ``exact(a, b)`` times 2^``scale``, one power of two for every pair:
    V = G 2^scale, and an r x r minor of G carries 2^(r scale).
    """

    def __init__(self, directions: Sequence[Direction],
                 vertices: Sequence[Sequence[int]], scale: int):
        self.directions = tuple(directions)
        self._at = {d.factors: i for i, d in enumerate(self.directions)}
        self._vertices = vertices
        self.scale = scale

    def exact(self, a: Direction, b: Direction) -> int:
        """V(a, b) / 2^scale; symmetric."""
        try:
            return self._vertices[self._at[a.factors]][self._at[b.factors]]
        except KeyError:
            raise MissingVertexError(
                f"vertex ({a.label}, {b.label}) is not cached; "
                "rebuild the lattice with both directions") from None

    def matrix(self, directions: Sequence[Direction]) -> list[list[int]]:
        """The integer matrix G[i][j] = exact(d_i, d_j) over ``directions``,
        so V(d_i, d_j) = G[i][j] 2^scale."""
        at = [self._at.get(d.factors) for d in directions]
        if None in at:  # raises, naming the first pair missing
            self.exact(directions[0], directions[at.index(None)])
        return [[row[j] for j in at] for row in map(self._vertices.__getitem__, at)]

    def vertex(self, a: Direction, b: Direction) -> float:
        """V(a, b), rounded once; symmetric."""
        return rounded(self.exact(a, b), self.scale,
                       "vertex V({0.label}, {1.label})", a, b)

    def __repr__(self) -> str:
        return "Lattice(n={}, directions=[{}])".format(
            int(self.vertex(UNITY, UNITY)),
            ", ".join(d.label for d in self.directions))


#: Bits per limb.  Every limb is below 2^(_LIMB_BITS + 1) in magnitude.
_LIMB_BITS = 20

#: Rows summed by one matrix product: a product of two limbs is below
#: 2^(2 (_LIMB_BITS + 1)), so a float64 sum of this many is an integer
#: below 2^53, exact (2^11 rows at 20-bit limbs).
_BLOCK_ROWS = 1 << 53 - 2 * (_LIMB_BITS + 1)


def build_lattice(data: Dataset, directions: Sequence[Direction]) -> Lattice:
    """Compute all pairwise vertices over ``directions``, exactly.

    ``directions`` must be non-empty and include unity (else
    ``ValueError``, before any row is read); duplicates are dropped.
    Each column is read once, in blocks of ``_BLOCK_ROWS`` rows (views
    of the table when the columns read are evenly spaced in it), where
    each value of column c is an integer multiple of 2^e_c, e_c the ulp
    of the block's smallest nonzero magnitude.  Those integers are split
    into limbs, a product direction's limbs are multiplied out from its
    factors', and one matrix product sums every pair of limbs over the
    block.  Each block's vertices make one exact :class:`Lattice`, and
    :func:`_sum` adds the blocks' lattices at the lowest scale any block
    needed.  A missing column raises :class:`ColumnNotFoundError`.
    """
    plan = _plan(tuple(directions), data.names)
    rows = plan[1]
    return _fold(plan, (data._table[rows, start:start + _BLOCK_ROWS]
                        for start in range(0, data.n, _BLOCK_ROWS)))


def lattice_of_rows(chunks: Iterable[np.ndarray], names: Sequence[str],
                    directions: Sequence[Direction]) -> Lattice:
    """:func:`build_lattice` over row chunks: each chunk an (r, k) array
    of the columns ``names``, in row order.  The chunks are re-cut into
    blocks of ``_BLOCK_ROWS`` rows, so the exact vertices and the number
    of blocks are those of the same rows in one :class:`Dataset`; no
    chunk is kept past its turn.  The directions are checked before any
    chunk is read.  No rows raise :class:`EmptyDataError`."""
    plan = _plan(tuple(directions), tuple(names))
    return _fold(plan, _recut(chunks, plan[1], plan[2]))


def _recut(chunks: Iterable[np.ndarray], columns, width: int):
    """The ``width`` columns ``columns`` of row chunks, transposed and
    re-cut into blocks of ``_BLOCK_ROWS`` rows, the last one shorter."""
    # One buffer serves every full block; each is summed before the next.
    size, filled = _BLOCK_ROWS, 0
    block = np.empty((width, size))
    for chunk in chunks:
        start = 0
        while start < len(chunk):
            take = min(size - filled, len(chunk) - start)
            block[:, filled:filled + take] = chunk[start:start + take, columns].T
            filled, start = filled + take, start + take
            if filled == size:
                yield block
                filled = 0
    if filled:
        yield block[:, :filled]


def _fold(plan, blocks: Iterable[np.ndarray]) -> Lattice:
    """The exact lattice of ``blocks`` by ``plan``, a :func:`_plan`: each
    block a (width, r) array of the plan's rows of a source, r at most
    ``_BLOCK_ROWS``, and the blocks together hold every data row once.
    Each block's lattice is added to the running total by :func:`_sum`.
    No block raises :class:`EmptyDataError`."""
    total = None
    for block in blocks:
        part = _block_vertices(block, plan)
        total = part if total is None else _sum(total, part)
    if total is None:
        raise EmptyDataError("dataset has no rows")
    return total


def _sum(a: Lattice, b: Lattice) -> Lattice:
    """The lattice of the rows of ``a`` and ``b``, both over the same
    directions in the same order, exactly: vertices are sums over rows.
    The sum is at the lower of the two scales, so it is one shift and one
    add per vertex."""
    low, high = sorted((a, b), key=operator.attrgetter("scale"))
    shift = high.scale - low.scale
    return Lattice(a.directions,
                   [[v + (u << shift) for v, u in zip(row, ups)]
                    for row, ups in zip(low._vertices, high._vertices)],
                   low.scale)


def _block_vertices(values: np.ndarray, plan) -> Lattice:
    """The exact lattice of one block of column values (a row per column
    the :func:`_plan` ``plan`` reads), over the plan's directions.  Column
    c's values are integer multiples of 2^e_c, so a direction d's are
    multiples of 2^e_d, e_d the sum of its factors' e_c (0 for unity), and
    V(i, j) of 2^(e_i + e_j); the scale is twice the lowest e_d, so every
    vertex's integer is its limb sum shifted left."""
    directions, _, _, factors = plan
    magnitude = np.abs(values)
    lows = magnitude.min(axis=1).tolist()
    if 0.0 in lows:
        lows = magnitude.min(axis=1, initial=math.inf, where=magnitude > 0).tolist()
    tops = magnitude.max(axis=1).tolist()
    # A normal |v| < 2^k is a multiple of 2^(k - 53), a subnormal of 2^-1074.
    exps = [max(math.frexp(low)[1] - 53, -1074) if top else 0
            for top, low in zip(tops, lows)]
    bits = max((math.frexp(top)[1] - e for top, e in zip(tops, exps)), default=0)
    limbs = max(1, -(-bits // _LIMB_BITS))
    m, n = values.shape
    size, at, terms, bounds, steps, ends = _layout(factors, m, limbs)
    rows = np.empty((size, n))
    rows[0] = 1.0

    # Limb k of v 2^-e is trunc(v 2^-(e + 20k)) - 2^20 trunc(v 2^-(e + 20(k + 1))),
    # the top one the first term alone, since |v| < 2^(e + 20 limbs).  ldexp
    # scales in one exact step, but may round a level below 1, which trunc
    # takes to 0.  A level that overflows, or 2^20 times which does, lies
    # above its value's top bit: it and its limb are 0.
    digits = rows[1:1 + limbs * m].reshape(limbs, m, n)
    shifts = [-(e + _LIMB_BITS * k) for k in range(limbs) for e in exps]
    with (np.errstate(over="ignore", invalid="ignore") if bits > 1023
          else contextlib.nullcontext()):
        np.ldexp(values.reshape(1, m, n),
                 np.array(shifts, np.int32).reshape(limbs, m, 1), out=digits)
        np.trunc(digits, out=digits)
        digits[:-1] -= 2.0 ** _LIMB_BITS * digits[1:]
        if bits > 1023:
            digits[~np.isfinite(digits)] = 0.0
    for d, f in enumerate(factors):
        if len(f) > 1:
            rows[at[d].start:at[d].stop] = functools.reduce(
                _limb_product, digits[:, list(f)].astype(np.int64).swapaxes(0, 1))
    gram = (rows @ rows.T).astype(np.int64).reshape(-1)
    diagonals = np.add.reduceat(gram[terms], bounds).tolist()
    running = [0, *itertools.accumulate(map(operator.lshift, diagonals, steps))]
    up = [sum(map(exps.__getitem__, f)) for f in factors]
    low = min(up)
    up = [e - low for e in up]
    vertices = [[0] * len(factors) for _ in factors]
    for a, b, (i, j) in zip(ends, ends[1:], _pairs(len(factors))):
        vertices[i][j] = vertices[j][i] = running[b] - running[a] << up[i] + up[j]
    return Lattice(directions, vertices, 2 * low)


@functools.lru_cache(maxsize=256)
def _plan(directions: tuple[Direction, ...], source: tuple[str, ...]):
    """How a fold over ``directions`` reads a source with columns
    ``source``: the directions without repeats, the rows of the columns
    they read (a slice, which indexes a view, when evenly spaced), their
    number, and each direction's factors as positions among them.  The
    columns keep the source's order, so that any one or two of them make
    a slice.  Raises ``ValueError`` unless the directions are non-empty
    and include unity, then :class:`ColumnNotFoundError` for the first
    column, in order of use, that ``source`` lacks."""
    directions = tuple(dict.fromkeys(directions))
    if not directions:
        raise ValueError("directions must be non-empty")
    if UNITY not in directions:
        raise ValueError("directions must include unity")
    used = dict.fromkeys(itertools.chain(*(d.factors for d in directions)))
    for name in used:
        if name not in source:
            raise ColumnNotFoundError(name)
    index = sorted(map(source.index, used))
    names = [source[i] for i in index]
    step = index[1] - index[0] if len(index) > 1 else 1
    run = range(index[0], index[-1] + 1, step) if index else range(0)
    rows = slice(run.start, run.stop, run.step) if index == list(run) else index
    return (directions, rows, len(index),
            tuple(tuple(map(names.index, d.factors)) for d in directions))


@functools.lru_cache(maxsize=256)
def _pairs(k):
    """The pairs (i, j), i <= j, of k directions, in vertex order."""
    return tuple(itertools.combinations_with_replacement(range(k), 2))


@functools.lru_cache(maxsize=256)
def _layout(factors, m, limbs):
    """Each direction's rows in a block, ``at``, least significant limb
    first (row 0 unity, row 1 + km + c limb k of column c, then each
    product's limbs in a run), and which Gram entries make each pair's
    vertex: the sum over limbs p, q of entry (p, q) 2^(20(p + q)).
    ``terms`` lists flat entries by pair, then by p + q; those of one
    p + q start at ``bounds``, sum exactly in int64 (a few hundred, each
    below 2^53) and shift by ``steps``; ``ends`` bounds each pair's run."""
    size, at = 1 + limbs * m, []
    for f in factors:
        if len(f) > 1:
            at.append(range(size, size + limbs * len(f)))
            size += limbs * len(f)
        else:
            at.append(range(1 + f[0], 1 + limbs * m, m) if f else range(1))
    terms, bounds, steps, ends = [], [], [], [0]
    for i, j in _pairs(len(factors)):
        a, b = at[i], at[j]
        for k in range(len(a) + len(b) - 1):
            bounds.append(len(terms))
            steps.append(_LIMB_BITS * k)
            terms += [a[p] * size + b[k - p]
                      for p in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)]
        ends.append(len(bounds))
    return (size, tuple(at), np.array(terms), np.array(bounds),
            tuple(steps), tuple(ends))


def _limb_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Limbs of the product of two int64 limb arrays (a row per limb, least
    significant first), limbs below 2^21 in magnitude and values below
    2^(20 rows).  Limb products sum below 2^49 (at most 105 limbs); two
    rounds of carrying every limb's bits past the 20th into the next leave
    each limb below 2^20 + 2^10, as the product is below 2^(20 rows)."""
    out = np.zeros((len(a) + len(b), a.shape[1]), np.int64)
    for i, row in enumerate(a):
        out[i:i + len(b)] += b * row
    for _ in range(2):
        carry = out[:-1] >> _LIMB_BITS
        out[:-1] &= (1 << _LIMB_BITS) - 1
        out[1:] += carry
    return out


def lattice_over(source: Dataset | Lattice,
                 directions: Sequence[Direction]) -> Lattice:
    """``source`` itself if it is a lattice, so that its callers share one
    data pass (a vertex it lacks raises :class:`MissingVertexError` when
    read), else a fresh :func:`build_lattice` over ``directions``."""
    return (source if isinstance(source, Lattice)
            else build_lattice(source, directions))


def join(lat: Lattice, pairs: Sequence[tuple[Direction, Direction]]) -> float:
    """Product of two or three cached vertex values, rounded once:
    ``join(lat, [(a, b), (c, d)])`` is V(a,b) V(c,d), and a third pair
    gives the three-vertex join of the 3x3 determinants."""
    if len(pairs) not in (2, 3):
        raise ValueError(f"join takes 2 or 3 vertex pairs, got {len(pairs)}")
    return rounded(math.prod(lat.exact(a, b) for a, b in pairs),
                   len(pairs) * lat.scale, "join {}",
                   " ".join(f"V({a.label}, {b.label})" for a, b in pairs))


def det2(lat: Lattice, a: Direction, b: Direction,
         c: Direction, d: Direction) -> float:
    """Signed difference of joins V(a,b) V(c,d) - V(a,d) V(c,b), rounded
    once; antisymmetric: det2(a,b,c,d) = -det2(a,d,c,b)."""
    return form_determinant(lat, DeterminantKind.general2(a, b, c, d))


def minor(m: Sequence[Sequence[int]], rows: Sequence[int],
          cols: Sequence[int]) -> int:
    """Determinant of the 1x1, 2x2 or 3x3 submatrix of ``m`` on the
    indices ``rows`` and ``cols``, by its closed form."""
    size = len(rows)
    if size != len(cols) or not 0 < size < 4:
        raise ValueError("vertex matrix must be 1x1, 2x2 or 3x3, "
                         f"got {size}x{len(cols)}")
    if size == 1:
        return m[rows[0]][cols[0]]
    if size == 2:
        (r0, r1), (c0, c1) = rows, cols
        return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]
    (r0, r1, r2), (d, e, f) = rows, cols
    a, b, c = m[r0], m[r1], m[r2]
    return (a[d] * (b[e] * c[f] - b[f] * c[e])
            - a[e] * (b[d] * c[f] - b[f] * c[d])
            + a[f] * (b[d] * c[e] - b[e] * c[d]))


#: _ALL_BUT[k][i]: the indices 0 to k - 1 without i.
_ALL_BUT = [[tuple(r for r in range(k) if r != i) for i in range(k)]
            for k in range(5)]


def cofactor(m: Sequence[Sequence[int]], i: int, j: int) -> int:
    """C[i][j] of a 2x2 to 4x4 ``m``: (-1)^(i + j) times the :func:`minor`
    without row i and column j."""
    rest = _ALL_BUT[len(m)]
    value = minor(m, rest[i], rest[j])
    return -value if (i + j) % 2 else value


def _label(subscripts: Sequence[Direction]) -> str:
    return "".join(d.label for d in subscripts)


def det3_general(lat: Lattice, rows: Sequence[Direction],
                 cols: Sequence[Direction]) -> float:
    """3x3 determinant of the vertex matrix M[i][j] = V(rows[i], cols[j]),
    the signed sum of the six three-vertex joins."""
    if len(rows) != 3 or len(cols) != 3:
        raise ValueError("det3_general takes exactly 3 row and 3 column directions")
    return form_determinant(lat, DeterminantKind(
        tuple(d for pair in zip(rows, cols) for d in pair)))


@dataclass(frozen=True)
class DeterminantKind:
    """A named member of the determinant family, given by its subscripts.

    ``subscripts`` lists (row, column) direction pairs of the vertex
    matrix, ``(r0, c0, r1, c1)`` for a 2x2 determinant and
    ``(r0, c0, r1, c1, r2, c2)`` for a 3x3 one, so the determinant is
    that of M[i][j] = V(subscripts[2i], subscripts[2j + 1]).  The paper's
    names are these subscripts: variance(x) is delta_11xx with
    subscripts (1, 1, x, x), as is general2(1, 1, x, x): equal subscripts
    are the same kind.  Use the classmethod constructors.
    """

    subscripts: tuple[Direction, ...]

    @classmethod
    def variance(cls, a: Direction) -> "DeterminantKind":
        """n sum(a^2) - sum(a)^2, i.e. n^2 times the population variance."""
        return cls((UNITY, UNITY, a, a))

    @classmethod
    def covariance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """n sum(ab) - sum(a) sum(b), i.e. n^2 times the population covariance."""
        return cls((UNITY, UNITY, a, b))

    @classmethod
    def internal_covariance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """sum(a) sum(b^2) - sum(b) sum(ab): the level-one/level-two mixed
        determinant with subscripts (1, a, b, b)."""
        return cls((UNITY, a, b, b))

    @classmethod
    def base_variance(cls, a: Direction, b: Direction) -> "DeterminantKind":
        """sum(a^2) sum(b^2) - sum(ab)^2: the level-two determinant that is
        the denominator of non-response estimates."""
        return cls((a, a, b, b))

    @classmethod
    def general2(cls, a: Direction, b: Direction,
                 c: Direction, d: Direction) -> "DeterminantKind":
        """Arbitrary four-subscript determinant V(a,b)V(c,d) - V(a,d)V(c,b)."""
        return cls((a, b, c, d))

    @classmethod
    def form1(cls, a: Direction, b: Direction, c: Direction) -> "DeterminantKind":
        """Symmetric 3x3 determinant with rows = cols = (a, b, c): the
        denominator of a three-regressor system."""
        return cls((a, a, b, b, c, c))

    @classmethod
    def form2(cls, a: Direction, b: Direction, c: Direction,
              d: Direction) -> "DeterminantKind":
        """form1(a, b, c) with the first column direction replaced by d:
        the numerator determinant of a three-regressor system.  Reduces to
        form1 when d = a."""
        return cls((a, d, b, b, c, c))


def form_determinant(lat: Lattice, kind: DeterminantKind) -> float:
    """Any member of the determinant family: the determinant of the
    vertex matrix over rows ``subscripts[0::2]`` and columns
    ``subscripts[1::2]``, rounded once and named ``determinant delta_``
    plus its subscripts."""
    return rounded(*_kind_det(lat, kind), "determinant delta_{}",
                   _label(kind.subscripts))


def scaled_sigma(lat: Lattice, kind: DeterminantKind) -> float:
    """Determinant divided by n^2 = V(1, 1)^2 (population-style), exactly,
    rounded once.  Only for the 2x2 kinds, whose named members carry
    exactly that n^2 over the plain moment."""
    label = _label(kind.subscripts)
    if len(kind.subscripts) != 4:
        raise ValueError(f"no sigma scaling for determinant delta_{label}")
    n = lat.exact(UNITY, UNITY)  # V(1, 1)^2 carries 2^(2 scale), as det does
    return rounded(_kind_det(lat, kind)[0], 0, "sigma_{}", label, den=n * n)


def _kind_det(lat: Lattice, kind: DeterminantKind) -> tuple[int, int]:
    """The determinant of ``kind`` as ``(integer, exponent)``: an r x r
    :func:`minor` of the lattice's matrix, which carries 2^(r scale)."""
    dirs = list(dict.fromkeys(kind.subscripts))
    at = list(map(dirs.index, kind.subscripts))
    return (minor(lat.matrix(dirs), at[0::2], at[1::2]),
            len(at) // 2 * lat.scale)


def measure_catalog(source: Dataset | Lattice,
                    columns: Sequence[str]) -> dict[str, float]:
    """All vertices and named determinants for two or three columns.

    ``source`` is a dataset, over which one lattice is built, or a
    lattice that caches unity and every column's direction
    (:class:`MissingVertexError` otherwise).  Keys follow the subscript
    naming of the determinant family: ``v_1x`` for vertices, ``delta_``
    plus a kind's subscript labels (``delta_11xx``), and ``sigma_11xx``
    for the delta / n^2 of the 2x2 kinds.  Each entry is exact, rounded
    once, from one read of the lattice's matrix G over (1, columns...):
    a vertex is an entry of G, a delta a :func:`minor` (``delta_xxyyzz``
    is the cofactor C[0][0]).  Keys concatenate column names, so
    ``ValueError`` is raised when two entries would share one, as for a
    column named 1.
    """
    if isinstance(columns, str):
        raise TypeError(f"columns must be a sequence, not the str {columns!r}")
    if len(columns) not in (2, 3):
        raise ValueError("measure catalog requires 2 or 3 columns")
    if len(set(columns)) != len(columns):
        raise ValueError("measure catalog columns must be distinct")
    axes = (UNITY, *map(Direction, columns))
    lat = lattice_over(source, axes)
    m, scale = lat.matrix(axes), lat.scale
    keys, cells, kinds = _catalog(axes)
    values = [rounded(m[i][j], scale, "vertex V({0.label}, {1.label})",
                      axes[i], axes[j]) for i, j in cells]
    dets = [(key, minor(m, rows, cols), len(rows)) for key, rows, cols in kinds]
    values += [rounded(det, size * scale, "determinant delta_{}", key)
               for key, det, size in dets]
    # delta / V(1, 1)^2: both carry 2^(2 scale).
    values += [rounded(det, 0, "sigma_{}", key, den=m[0][0] ** 2)
               for key, det, size in dets if size == 2]
    return dict(zip(keys, values))


@functools.lru_cache(maxsize=256)
def _catalog(axes):
    """The catalog's keys over ``axes`` (unity first), each vertex's place
    (i, j) in G, and each determinant's key, rows and columns in G:
    variance, covariance, internal covariance, base variance, form1."""
    cols = axes[1:]
    pairs = list(itertools.combinations(cols, 2))
    internal = DeterminantKind.internal_covariance
    kinds = ([DeterminantKind.variance(a) for a in cols]
             + [DeterminantKind.covariance(a, b) for a, b in pairs]
             + [kind for a, b in pairs for kind in (internal(b, a), internal(a, b))]
             + [DeterminantKind.base_variance(a, b) for a, b in pairs])
    if len(cols) == 3:
        kinds.append(DeterminantKind.form1(*cols))
    at = [tuple(map(axes.index, kind.subscripts)) for kind in kinds]
    kinds = [(_label(kind.subscripts), i[0::2], i[1::2]) for kind, i in zip(kinds, at)]
    cells = _pairs(len(axes))
    keys = ([f"v_{axes[i].label}{axes[j].label}" for i, j in cells]
            + [f"delta_{key}" for key, _, _ in kinds]
            + [f"sigma_{key}" for key, rows, _ in kinds if len(rows) == 2])
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"measure catalog key {key!r} names two "
                             "entries; rename a column")
    return keys, cells, kinds
