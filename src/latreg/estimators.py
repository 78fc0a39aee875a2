"""Cramer's-rule fitting over vertex determinants, for all rotations.

A model is a response direction and one to three regressor directions.
When the response is unity the model is implicit ("non-response"): the
constant 1 is regressed on the data and the error lives in the system
rather than in any single variable.  Rotational analysis refits the same
direction set with each member, unity included, taking the response
role in turn.

Coefficients come from Cramer's rule on the normal equations
G c = r with G[i][j] = V(reg_i, reg_j) and r[i] = V(reg_i, response):
each coefficient is the ratio of a column-replaced determinant to the
system determinant, both evaluated through the lattice operators.  A
sign note for the simple line y on x: the slope numerator used here is
the covariance determinant n sum(xy) - sum(x) sum(y) (column
replacement in the second column), which is the textbook least squares
slope numerator; the same determinant with its unity column reversed is
its exact negation and is not what Cramer's rule produces.

Coefficients and determinants read only vertices, so one lattice
serves a whole request: build it once over all the directions
involved and pass it to :func:`solve`, :func:`fit_all_rotations` and
:func:`latreg.lattice.measure_catalog`::

    lat = build_lattice(data, [UNITY, x, y])
    line = solve(lat, ModelSpec(response=y, regressors=(UNITY, x)))
    rotations = fit_all_rotations(lat, [UNITY, x, y])
    catalog = measure_catalog(lat, ["x", "y"])

:func:`fit` is the one-model shorthand ``solve(build_lattice(...), spec)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LatregError, SingularSystemError
from .lattice import (Dataset, Direction, Lattice, UNITY, build_lattice,
                      checked_fsum, lattice_over, vertex_matrix_det)

__all__ = [
    "ModelSpec",
    "FitResult",
    "RotationResult",
    "solve",
    "fit",
    "fit_all_rotations",
    "residual_report",
]

#: Relative determinant floor below which a system counts as near-singular.
SINGULAR_RTOL = 1e-9


@dataclass(frozen=True)
class ModelSpec:
    """A response direction plus 1 to 3 regressor directions.

    Unity is never added implicitly: write it as a regressor where an
    intercept is wanted, or as the response for a non-response model.
    """

    response: Direction
    regressors: tuple[Direction, ...]

    def __post_init__(self):
        regs = tuple(self.regressors)
        object.__setattr__(self, "regressors", regs)
        if not 1 <= len(regs) <= 3:
            raise ValueError(f"model needs 1 to 3 regressors, got {len(regs)}")
        if len(set(regs)) != len(regs):
            raise ValueError("regressor directions must be distinct")
        if self.response in regs:
            raise ValueError("response direction may not also be a regressor")

    @property
    def is_non_response(self) -> bool:
        """True when unity is the response (implicit model)."""
        return self.response.is_unity

    @property
    def label(self) -> str:
        return "{} = {}".format(
            self.response.label, " + ".join(d.label for d in self.regressors))


@dataclass(frozen=True)
class FitResult:
    """Outcome of a Cramer's-rule fit.

    ``coefficients[i] * denominator == numerators[i]`` by construction;
    ``denominator`` is the system determinant (for the classic cases:
    the variance determinant for an explicit simple line, the base
    variance for the two-regressor implicit model) and ``numerators``
    are the column-replaced determinants in regressor order.
    ``condition_flag`` is ``"well-posed"`` or ``"near-singular"``.
    """

    spec: ModelSpec
    coefficients: tuple[float, ...]
    denominator: float
    numerators: tuple[float, ...]
    sse: float
    condition_flag: str

    def predict(self, data: Dataset) -> np.ndarray:
        """Fitted values of the response direction on ``data``."""
        return _predict(self.coefficients, self.spec.regressors, data)


def _predict(coefficients, regressors, data: Dataset) -> np.ndarray:
    out = np.zeros(data.n)
    for c, reg in zip(coefficients, regressors):
        out = out + c * data.evaluate(reg)
    return out


def _residuals(coefficients, spec: ModelSpec,
               data: Dataset) -> tuple[np.ndarray, float]:
    """Per-row residuals of the response on ``data`` and their SSE."""
    residuals = (data.evaluate(spec.response)
                 - _predict(coefficients, spec.regressors, data))
    return residuals, checked_fsum(residuals * residuals, "SSE of {!r}", spec)


def _system(lat: Lattice, spec: ModelSpec):
    """Gram matrix, right side, denominator and numerator determinants.

    The numerator of coefficient i is the system determinant with
    column i replaced by the response (Cramer's rule).
    """
    regs = spec.regressors
    resp = spec.response
    gram = [[lat.vertex(a, b) for b in regs] for a in regs]
    rhs = [lat.vertex(a, resp) for a in regs]
    den = vertex_matrix_det(lat, regs, regs)
    nums = [vertex_matrix_det(lat, regs, regs[:i] + (resp,) + regs[i + 1:])
            for i in range(len(regs))]
    return gram, rhs, den, nums


def _consistent(gram, rhs, coeffs) -> bool:
    """Check that the candidate solution still satisfies G c = r."""
    if not all(math.isfinite(c) for c in coeffs):
        return False
    scale_c = max(abs(c) for c in coeffs)
    for row, r in zip(gram, rhs):
        lhs = math.fsum(g * c for g, c in zip(row, coeffs))
        scale = abs(r) + math.hypot(*row) * scale_c
        if abs(lhs - r) > 1e-6 * max(scale, 1e-300):
            return False
    return True


def solve(lat: Lattice, spec: ModelSpec) -> FitResult:
    """Fit a model by Cramer's rule over an existing vertex lattice.

    Parameters
    ----------
    lat : Lattice
        Vertices over (at least) the spec's response and regressors;
        the SSE is taken over ``lat.source``.
    spec : ModelSpec
        Response and 1 to 3 regressor directions.

    Returns
    -------
    FitResult
        Coefficients with their determinant bookkeeping and the SSE.
        The result is flagged ``"near-singular"`` when the system
        determinant falls below ``1e-9`` times the product of the Gram
        row norms but the solution still satisfies the normal equations.

    Raises
    ------
    SingularSystemError
        When the determinant is below the threshold and no consistent
        solution exists (exactly collinear regressors, for instance).
    MissingVertexError
        When the lattice lacks one of the spec's directions.
    """
    gram, rhs, den, nums = _system(lat, spec)
    threshold = SINGULAR_RTOL * math.prod(math.hypot(*row) for row in gram)

    if abs(den) <= threshold:
        coeffs = tuple(n / den for n in nums) if den != 0.0 else None
        if coeffs is None or not _consistent(gram, rhs, coeffs):
            raise SingularSystemError(
                f"singular normal equations for {spec.label!r} "
                f"(determinant {den!r})", determinant=den)
        flag = "near-singular"
    else:
        coeffs = tuple(n / den for n in nums)
        flag = "well-posed"

    return FitResult(
        spec=spec,
        coefficients=coeffs,
        denominator=den,
        numerators=tuple(nums),
        sse=_residuals(coeffs, spec, lat.source)[1],
        condition_flag=flag,
    )


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """Fit one model: :func:`solve` on a lattice built over unity and the
    spec's directions.

    Raises what :func:`solve` raises, and
    :class:`~latreg.errors.ColumnNotFoundError` when a direction names a
    missing column.
    """
    return solve(build_lattice(data, [UNITY, *spec.regressors, spec.response]),
                 spec)


@dataclass(frozen=True)
class RotationResult:
    """One rotation of a direction set: either a fit or the error it raised."""

    response: Direction
    fit: FitResult | None = None
    error: LatregError | None = None

    @property
    def ok(self) -> bool:
        return self.fit is not None


def fit_all_rotations(source: Dataset | Lattice,
                      directions: Sequence[Direction]) -> list[RotationResult]:
    """Fit every rotation of a direction set.

    Each direction takes the response role in turn with all the others
    as regressors, keeping the given order.  Rotations are emitted in
    the given direction order with the unity rotation last.  A rotation
    that fails (singular system) is carried in place with its error
    rather than aborting the sweep; any other error aborts it.

    ``directions`` must hold 3 or 4 distinct directions including unity.
    ``source`` is a dataset, over which one lattice is built, or a
    lattice that already caches every direction
    (:class:`~latreg.errors.MissingVertexError` otherwise); every
    rotation is solved on that one lattice.
    """
    dirs = list(directions)
    if len(dirs) not in (3, 4):
        raise ValueError(f"rotations need 3 or 4 directions, got {len(dirs)}")
    if len(set(dirs)) != len(dirs):
        raise ValueError("rotation directions must be distinct")
    if UNITY not in dirs:
        raise ValueError("rotation directions must include unity")

    lat = lattice_over(source, dirs)
    responses = [d for d in dirs if not d.is_unity] + [UNITY]
    results = []
    for resp in responses:
        regressors = tuple(d for d in dirs if d != resp)
        spec = ModelSpec(response=resp, regressors=regressors)
        try:
            results.append(RotationResult(response=resp, fit=solve(lat, spec)))
        except SingularSystemError as err:
            results.append(RotationResult(response=resp, error=err))
    return results


def residual_report(fit_result: FitResult, data: Dataset) -> dict:
    """Per-row residuals and error sums for a well-posed fit.

    Returns a mapping with deterministic key order: ``"model"``,
    ``"residuals"``, ``"sse"``, and for non-response fits additionally
    ``"system_error"``, the error in the system sum(1 - sum_j c_j reg_j)^2
    (identical to the SSE there, since the response is the constant 1).
    """
    if fit_result.condition_flag != "well-posed":
        raise ValueError("residual report requires a well-posed fit")
    residuals, sse = _residuals(fit_result.coefficients, fit_result.spec, data)
    report: dict = {
        "model": fit_result.spec.label,
        "residuals": residuals.tolist(),
        "sse": sse,
    }
    if fit_result.spec.is_non_response:
        # The response is the constant 1, so each residual is 1 - prediction.
        report["system_error"] = report["sse"]
    return report
