"""Exact least squares answers over the floats the program parses.

Every float is a dyadic rational, so a column is held as Python integers
with one shared binary exponent (x_i = X_i * 2**e).  Sums of products
of such columns are exact integers, and the normal equations are solved
over :class:`fractions.Fraction`.  Nothing here uses latreg, and nothing
rounds until :func:`rel_error` compares a reported float with the exact
value.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

#: A direction is a sorted tuple of column names; () is unity.
Dir = tuple[str, ...]


def _to_ints(col: np.ndarray) -> tuple[list[int], int]:
    """Integers X and exponent e with col[i] == X[i] * 2**e exactly."""
    nonzero = col[col != 0]
    if nonzero.size == 0:
        return [0] * len(col), 0
    _, exps = np.frexp(nonzero)
    e = int(exps.min()) - 53
    if int(exps.max()) - e < 1000:
        # Scaling by a power of two is exact while nothing overflows, and
        # int() of an integer-valued float is exact.
        return list(map(int, np.ldexp(col, -e).tolist())), e
    out = []
    for v in col.tolist():
        m, ex = math.frexp(v)
        out.append(int(m * 2.0 ** 53) << (ex - 53 - e))
    return out, e


def _scaled(total: int, e: int) -> Fraction:
    return Fraction(total << e) if e >= 0 else Fraction(total, 1 << -e)


class ExactColumns:
    """Exact vertices V(a, b) = sum_i a_i * b_i over float columns."""

    def __init__(self, columns: Mapping[str, np.ndarray]):
        self.n = len(next(iter(columns.values())))
        self._dirs: dict[Dir, tuple[list[int], int]] = {
            (name,): _to_ints(np.asarray(col, dtype=float))
            for name, col in columns.items()}
        self._vertices: dict[tuple[Dir, Dir], Fraction] = {}

    def _direction(self, d: Dir) -> tuple[list[int], int]:
        if d not in self._dirs:
            vals, e = self._direction(d[:1])
            rest, e2 = self._direction(d[1:])
            self._dirs[d] = (list(map(operator.mul, vals, rest)), e + e2)
        return self._dirs[d]

    def vertex(self, a: Dir, b: Dir) -> Fraction:
        a, b = tuple(sorted(a)), tuple(sorted(b))
        key = (a, b) if a <= b else (b, a)
        if key not in self._vertices:
            a, b = key
            if not a and not b:
                value = Fraction(self.n)
            elif not a:
                vals, e = self._direction(b)
                value = _scaled(sum(vals), e)
            else:
                va, ea = self._direction(a)
                vb, eb = self._direction(b)
                value = _scaled(sum(map(operator.mul, va, vb)), ea + eb)
            self._vertices[key] = value
        return self._vertices[key]


def solve(cols: ExactColumns, response: Dir,
          regressors: Sequence[Dir]) -> list[Fraction] | None:
    """Exact least squares coefficients, or None when the normal
    equations are singular."""
    k = len(regressors)
    rows = [[cols.vertex(a, b) for b in regressors] + [cols.vertex(a, response)]
            for a in regressors]
    for c in range(k):
        pivot = next((r for r in range(c, k) if rows[r][c] != 0), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(k):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def _label_dir(label: str) -> Dir:
    return () if label == "1" else (label,)


def _det2(cols: ExactColumns, a, b, c, d) -> Fraction:
    v = cols.vertex
    return v(a, b) * v(c, d) - v(a, d) * v(c, b)


def _det3(cols: ExactColumns, rows, colsd) -> Fraction:
    m = [[cols.vertex(r, c) for c in colsd] for r in rows]
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def measure(cols: ExactColumns, key: str) -> Fraction:
    """Exact value of a catalog entry named by its subscripts.

    ``v_ab`` is V(a, b); ``delta_abcd`` is V(a,b)V(c,d) - V(a,d)V(c,b);
    ``delta_aabbcc`` is the 3x3 determinant of V over rows (a, b, c) and
    columns (a, b, c); ``sigma_abcd`` is delta_abcd / n**2.  Subscripts
    are single-character column names or ``1`` for unity.
    """
    prefix, _, subs = key.partition("_")
    dirs = [_label_dir(ch) for ch in subs]
    if prefix == "v" and len(dirs) == 2:
        return cols.vertex(*dirs)
    if prefix in ("delta", "sigma") and len(dirs) == 4:
        value = _det2(cols, *dirs)
        return value / cols.n ** 2 if prefix == "sigma" else value
    if prefix == "delta" and len(dirs) == 6:
        return _det3(cols, dirs[0::2], dirs[1::2])
    raise KeyError(f"no exact rule for catalog entry {key!r}")


def rel_error(value: float, exact: Fraction) -> float:
    """|value - exact| / |exact|, inf for a non-finite value."""
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return math.inf
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    try:
        return float(abs(Fraction(value) - exact) / abs(exact))
    except OverflowError:  # off by more than the float range
        return math.inf


def digits(worst: float) -> float:
    """Correct decimal digits implied by a worst relative error, 0..16."""
    if worst == 0:
        return 16.0
    if not math.isfinite(worst):
        return 0.0
    return min(16.0, max(0.0, -math.log10(worst)))
