"""Independent reference implementations used only to cross-check results.

Everything here deliberately avoids the package's lattice/determinant
code paths: sums are plain Python accumulation, determinants are
permutation sums, and linear systems are solved by Gaussian elimination
with partial pivoting.  :class:`ExactData` is the exact counterpart:
every float is an integer times a power of two, so its vertices,
determinants, fits and SSEs are exact :class:`~fractions.Fraction`
values, and :func:`rounded` rounds one of them once.
"""

from fractions import Fraction
from itertools import permutations


def plain_dot(u, v):
    total = 0.0
    for a, b in zip(u, v):
        total += float(a) * float(b)
    return total


def det_permutation_sum(matrix):
    """Determinant via the naive signed permutation sum."""
    size = len(matrix)
    total = 0
    for perm in permutations(range(size)):
        sign = 1
        seen = list(perm)
        # count inversions for parity
        inversions = sum(1 for i in range(size) for j in range(i + 1, size)
                         if seen[i] > seen[j])
        if inversions % 2:
            sign = -1
        product = 1
        for row, col in enumerate(perm):
            product *= matrix[row][col]
        total += sign * product
    return total


def gauss_solve(matrix, rhs):
    """Solve A x = b by Gaussian elimination with partial pivoting."""
    size = len(rhs)
    a = [list(map(float, row)) + [float(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0.0:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(col + 1, size):
            factor = a[row][col] / a[col][col]
            for k in range(col, size + 1):
                a[row][k] -= factor * a[col][k]
    x = [0.0] * size
    for row in range(size - 1, -1, -1):
        acc = a[row][size]
        for k in range(row + 1, size):
            acc -= a[row][k] * x[k]
        x[row] = acc / a[row][row]
    return x


def normal_equations(regressor_columns, response_column):
    """Gram matrix and right side from raw columns, plain sums only."""
    gram = [[plain_dot(u, v) for v in regressor_columns]
            for u in regressor_columns]
    rhs = [plain_dot(u, response_column) for u in regressor_columns]
    return gram, rhs


def ols_solve(regressor_columns, response_column):
    gram, rhs = normal_equations(regressor_columns, response_column)
    return gauss_solve(gram, rhs)


def rounded(value: Fraction):
    """``value`` correctly rounded to float, or None outside the float
    range."""
    try:
        return float(value)
    except OverflowError:
        return None


class ExactData:
    """Exact sums over float columns, given as a mapping of name to values.

    A direction is a tuple of column names (``()`` is the constant 1).
    Each column is held as integers X with one exponent e, x_i = X_i 2^e,
    so products and sums are integer arithmetic.
    """

    def __init__(self, columns):
        self._columns = {name: self._dyadic(values)
                         for name, values in columns.items()}
        self.n = len(next(iter(columns.values())))

    @staticmethod
    def _dyadic(values):
        # float.as_integer_ratio() gives p / 2^t, that is p * 2^(1 - (2^t).bit_length()).
        pairs = [(p, 1 - q.bit_length())
                 for p, q in (float(v).as_integer_ratio() for v in values)]
        e = min(e for _, e in pairs)
        return [p << (pe - e) for p, pe in pairs], e

    def values(self, direction):
        """Exact per-row values of a direction as (integers, exponent)."""
        ints, e = [1] * self.n, 0
        for name in direction:
            column, ce = self._columns[name]
            ints, e = [a * b for a, b in zip(ints, column)], e + ce
        return ints, e

    def vertex(self, a, b) -> Fraction:
        (va, ea), (vb, eb) = self.values(a), self.values(b)
        return Fraction(sum(x * y for x, y in zip(va, vb))) * Fraction(2) ** (ea + eb)

    def det(self, rows, cols) -> Fraction:
        return det_permutation_sum([[self.vertex(r, c) for c in cols]
                                    for r in rows])

    def solve(self, response, regressors):
        """Exact Cramer's-rule coefficients, or None when singular."""
        den = self.det(regressors, regressors)
        if den == 0:
            return None
        regs = list(regressors)
        return [self.det(regs, regs[:i] + [response] + regs[i + 1:]) / den
                for i in range(len(regs))]

    def column(self, direction):
        """Exact per-row values of a direction as Fractions."""
        ints, e = self.values(direction)
        scale = Fraction(2) ** e
        return [v * scale for v in ints]

    def sse(self, response, regressors, coefficients) -> Fraction:
        """Exact sum over rows of the squared residuals of the given
        float coefficients."""
        columns = [self.column(d) for d in regressors]
        weights = [Fraction(c) for c in coefficients]
        return sum((r - sum(w * col[i] for w, col in zip(weights, columns))) ** 2
                   for i, r in enumerate(self.column(response)))
