"""Rotational analysis: every direction takes a turn as the response.

The same three measures {1, x, y} support three least squares fits:
y on (1, x), x on (1, y), and the implicit model 1 on (x, y) where the
error lives in the system instead of a single variable.  Each one is a
ratio of vertex determinants, so one lattice feeds them all.
"""

import numpy as np

from latreg import (Dataset, Direction, UNITY, fit_all_rotations,
                    residual_report)

rng = np.random.default_rng(7)
n = 40
x_values = rng.normal(10.0, 2.0, n)
y_values = 0.5 + 1.5 * x_values + rng.normal(0.0, 0.8, n)
data = Dataset({"x": x_values, "y": y_values})

rotations = fit_all_rotations(
    data, [UNITY, Direction("x"), Direction("y")])
for rotation in rotations:
    result = rotation.fit
    coeffs = ", ".join(f"{c:.6f}" for c in result.coefficients)
    print(f"{result.spec.label:12s} coefficients ({coeffs})  "
          f"sse {result.sse:.4f}")

# The y rotation reproduces the classic normal-equations solution.
design = np.column_stack([np.ones(n), x_values])
lstsq_coef, *_ = np.linalg.lstsq(design, y_values, rcond=None)
print("\nnumpy lstsq for y on (1, x):", np.round(lstsq_coef, 6))

# Residual reports expose the per-row errors of any fit.
y_fit = rotations[1].fit
report = residual_report(y_fit, data)
print("first five residuals:", np.round(report["residuals"][:5], 4))

# The unity rotation has no subject response: its report carries the
# error in the system, sum(1 - prediction)^2.
unity_fit = rotations[-1].fit
unity_report = residual_report(unity_fit, data)
print("system error of the implicit rotation:",
      round(unity_report["system_error"], 6))
