"""The rotation pyramid: one cofactor matrix holds every fit and the catalog.

Take G, the vertex matrix over (1, x, y), and its cofactor matrix C:
C[i][j] is (-1)^(i + j) times the determinant of G without row i and
column j.  The six distinct cofactors are the six catalog determinants,
and each row of C is one rotation: the fit with response r has the
denominator C[r][r] and the numerators -C[r][j].

Standard regression (y on x) reads the y row: the variance delta_11xx
over the covariance delta_11xy and the internal covariance delta_1yxx.
Non-response analysis (1 = x + y) reads the unity row: the internal
covariances delta_1xyy and delta_1yxx over the base variance delta_xxyy.
"""

from fractions import Fraction

from latreg import (Dataset, Direction, UNITY, build_lattice,
                    fit_all_rotations, measure_catalog)

x = Direction("x")
y = Direction("y")
dirs = [UNITY, x, y]
data = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0]})
lat = build_lattice(data, dirs)

# The lattice holds G as integers: V(d_i, d_j) = G[i][j] 2^(e_i + e_j).
ints, exps = lat.matrix(dirs)
G = [[Fraction(ints[i][j]) * Fraction(2) ** (exps[i] + exps[j])
      for j in range(3)] for i in range(3)]


def cofactor(i, j):
    (a, b), (c, d) = [[G[r][s] for s in range(3) if s != j]
                      for r in range(3) if r != i]
    return (-1) ** (i + j) * (a * d - b * c)


C = [[cofactor(i, j) for j in range(3)] for i in range(3)]
print("G over (1, x, y):")
for row in G:
    print("  ", [str(v) for v in row])
print("C, its cofactor matrix:")
for row in C:
    print("  ", [str(v) for v in row])

# The catalog is the six distinct cofactors, with their signs.
catalog = measure_catalog(lat, ["x", "y"])
print("\ncatalog determinants as cofactors:")
for key, (sign, i, j) in {"delta_xxyy": (1, 0, 0), "delta_11yy": (1, 1, 1),
                          "delta_11xx": (1, 2, 2), "delta_11xy": (-1, 1, 2),
                          "delta_1xyy": (-1, 0, 1),
                          "delta_1yxx": (-1, 0, 2)}.items():
    assert catalog[key] == float(sign * C[i][j])
    print(f"  {key:10s} = {'-' if sign < 0 else ' '}C[{i}][{j}] = {catalog[key]}")

# Each rotation is one row of C: x on (1, y), y on (1, x), and 1 = x + y.
print("\nrotations as rows of C:")
for rotation in fit_all_rotations(lat, dirs):
    result = rotation.fit
    r = dirs.index(rotation.response)
    den, nums = C[r][r], [-C[r][j] for j in range(3) if j != r]
    value, exponent = result.exact_denominator
    assert Fraction(value) * Fraction(2) ** exponent == den
    assert result.denominator == float(den)
    assert result.numerators == tuple(float(n) for n in nums)
    assert result.coefficients == tuple(float(n / den) for n in nums)
    print(f"  row {r}: {result.spec.label:9s} denominator C[{r}][{r}] = {den}, "
          f"coefficients {[str(n / den) for n in nums]}")
