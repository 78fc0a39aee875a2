"""Implicit models, interaction terms, and how degeneracy surfaces.

An implicit model regresses the constant 1 on the data.  If the rows
really satisfy 1 = a1*x + a2*y, the fit recovers the coefficients
exactly; adding a product direction x*y extends the same machinery to
interaction models; and exactly collinear regressors surface as a
singular-system error rather than garbage coefficients.
"""

import numpy as np

from latreg import (Dataset, Direction, ModelSpec, SingularSystemError, UNITY,
                    fit, parse_model)

x = Direction("x")
y = Direction("y")

# Rows engineered to satisfy 1 = -2x + y + z exactly.
plane = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0],
                 "z": [1.0, 2.0, 2.0]})
spec = ModelSpec(response=UNITY, regressors=(x, y, Direction("z")))
result = fit(plane, spec)
print("recovered:", result.coefficients, " sse:", result.sse)

# Model expressions parse into the same specs the API uses.
spec = parse_model("1 = x + y + x*y")
data = Dataset({"x": [1.0, 2.0, 3.0], "y": [2.0, 3.0, 5.0]})
result = fit(data, spec)
print("interaction model:", tuple(round(c, 12) for c in result.coefficients))
# (-1/7, 5/7, -1/7): these rows satisfy 1 = (-x + 5y - xy) / 7 exactly.

# Noisy data still recovers a planted implicit relation.
rng = np.random.default_rng(21)
xs = rng.normal(4.0, 1.0, 200)
ys = (1.0 - 0.3 * xs) / 0.1 + rng.normal(0.0, 0.05, 200)
noisy = Dataset({"x": xs, "y": ys})
result = fit(noisy, ModelSpec(response=UNITY, regressors=(x, y)))
print("planted (0.3, 0.1), recovered:",
      tuple(round(c, 4) for c in result.coefficients))

# Identical columns make the implicit system singular: its exact
# determinant is 0, and the error names the model.
twin = Dataset({"x": [1.0, 2.0, 3.0], "y": [1.0, 2.0, 3.0]})
try:
    fit(twin, ModelSpec(response=UNITY, regressors=(x, y)))
except SingularSystemError as err:
    print("singular as expected:", err)

# The explicit rotation of the same data is perfectly well-posed.
result = fit(twin, ModelSpec(response=y, regressors=(UNITY, x)))
print("y on (1, x) for identical columns:", result.coefficients)
