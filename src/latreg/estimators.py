"""Fitting by cofactor rows of the vertex matrix, for all rotations.

A model is a response direction and one to three regressor directions.
When the response is unity the model is implicit ("non-response"): the
constant 1 is regressed on the data and the error lives in the system
rather than in any single variable.  Rotational analysis refits the same
direction set with each member, unity included, taking the response
role in turn.

Coefficients come from the cofactor matrix C of the integer vertex
matrix G over (response, regressors...): the fit with response r has
system determinant C[r][r] and numerator -C[r][j] for regressor j
(Cramer's rule), so one C serves every rotation.  For the line y on x
the slope numerator is the covariance determinant n sum(xy) - sum(x)
sum(y), the textbook one; the same determinant with its unity column
reversed is its exact negation.

Coefficients, determinants and the SSE read only the exact vertices of
:mod:`latreg.lattice` and are rounded once, so a system is singular
exactly when its determinant is 0, and no fit reads the rows.  One
lattice serves a whole request::

    lat = build_lattice(data, [UNITY, x, y])
    line = solve(lat, ModelSpec(response=y, regressors=(UNITY, x)))
    rotations = fit_all_rotations(lat, [UNITY, x, y])
    catalog = measure_catalog(lat, ["x", "y"])

:func:`fit` is the one-model shorthand ``solve(build_lattice(...), spec)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import LatregError, NonFiniteResultError, SingularSystemError
from .lattice import (Dataset, Direction, Lattice, UNITY, build_lattice,
                      cofactor, lattice_over, rounded)

__all__ = [
    "ModelSpec",
    "FitResult",
    "RotationResult",
    "solve",
    "fit",
    "fit_all_rotations",
    "residual_report",
]


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
    """Outcome of a fit read from one cofactor row.

    ``coefficients[i] * denominator == numerators[i]`` exactly;
    ``denominator`` is the system determinant (the variance determinant
    for an explicit simple line, the base variance for the two-regressor
    implicit model) and ``numerators`` are the column-replaced
    determinants in regressor order, held as ``(integer, exponent)``.
    ``sse`` is the exact sum of squared residuals of the reported
    coefficients, from the lattice.  Each value is rounded once when
    first read; one outside the float range raises
    :class:`~latreg.errors.NonFiniteResultError` naming it.
    """

    spec: ModelSpec
    lattice: Lattice = field(repr=False, compare=False)
    exact_denominator: tuple[int, int]
    exact_numerators: tuple[tuple[int, int], ...]

    @cached_property
    def denominator(self) -> float:
        return rounded(*self.exact_denominator, "denominator of {0.label!r}",
                       self.spec)

    @cached_property
    def numerators(self) -> tuple[float, ...]:
        return tuple(rounded(*num, "numerator {0} of {1.label!r}", i, self.spec)
                     for i, num in enumerate(self.exact_numerators))

    @cached_property
    def coefficients(self) -> tuple[float, ...]:
        den, den_exp = self.exact_denominator
        return tuple(rounded(num, exp - den_exp, "coefficient {0} of {1.label!r}",
                             i, self.spec, den=den)
                     for i, (num, exp) in enumerate(self.exact_numerators))

    @cached_property
    def sse(self) -> float:
        """w' V w over (response, regressors) with w = (1, -c_1, ...,
        -c_k): sum_i (r_i - sum_j c_j x_ij)^2, exactly."""
        g, exps = self.lattice.matrix((self.spec.response, *self.spec.regressors))
        weights = [(1, 1)] + [(-c).as_integer_ratio() for c in self.coefficients]
        # w_d 2^e_d = m_d 2^low, with a power-of-two denominator q: 2^(1 - q.bit_length()).
        scaled = [(m, e + 1 - q.bit_length()) for (m, q), e in zip(weights, exps)]
        low = min(e for _, e in scaled)
        w = [m << (e - low) for m, e in scaled]
        total = sum(wi * wj * gij for wi, row in zip(w, g)
                    for wj, gij in zip(w, row))
        return rounded(total, 2 * low, "SSE of {0.label!r}", self.spec)

    def predict(self, data: Dataset) -> np.ndarray:
        """Fitted values of the response direction on ``data``."""
        out = np.zeros(data.n)
        for c, reg in zip(self.coefficients, self.spec.regressors):
            out = out + c * data.evaluate(reg)
        return out


def solve(lat: Lattice, spec: ModelSpec) -> FitResult:
    """Fit a model from row 0 of the cofactor matrix over (response,
    regressors...), read from a lattice that caches those directions
    (:class:`~latreg.errors.MissingVertexError` otherwise); no row is
    read.  Raises :class:`SingularSystemError` when the exact system
    determinant is 0 (collinear regressors)."""
    g, exps = lat.matrix((spec.response, *spec.regressors))
    return _cofactor_fit(lat, spec, [cofactor(g, 0, j) for j in range(len(g))],
                         0, exps)


def _cofactor_fit(lat: Lattice, spec: ModelSpec, row: Sequence[int], r: int,
                  exps: Sequence[int]) -> FitResult:
    """``spec`` from row r of the cofactor matrix over its directions, the
    response at r: cofactor (i, j) carries 2^(2 sum(e) - e_i - e_j)."""
    if row[r] == 0:
        raise SingularSystemError(
            f"singular normal equations for {spec.label!r} (determinant 0.0)",
            determinant=0.0)
    total = 2 * sum(exps) - exps[r]
    return FitResult(spec, lat, (row[r], total - exps[r]),
                     tuple((-c, total - e) for j, (c, e) in enumerate(zip(row, exps))
                           if j != r))


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """:func:`solve` on a lattice built over unity and the spec's
    directions; a missing column raises
    :class:`~latreg.errors.ColumnNotFoundError`."""
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
    as regressors, keeping the given order; the unity rotation comes
    last.  A singular rotation is carried in place with its error; any
    other error aborts the sweep.  ``directions`` must hold 3 or 4
    distinct directions including unity.  ``source`` is a dataset, over
    which one lattice is built, or a lattice that caches every direction
    (:class:`~latreg.errors.MissingVertexError` otherwise).
    """
    dirs = list(directions)
    if len(dirs) not in (3, 4):
        raise ValueError(f"rotations need 3 or 4 directions, got {len(dirs)}")
    if len(set(dirs)) != len(dirs):
        raise ValueError("rotation directions must be distinct")
    if UNITY not in dirs:
        raise ValueError("rotation directions must include unity")

    lat = lattice_over(source, dirs)
    g, exps = lat.matrix(dirs)
    cof = [[0] * len(g) for _ in g]
    for i, j in itertools.combinations_with_replacement(range(len(g)), 2):
        cof[i][j] = cof[j][i] = cofactor(g, i, j)  # G is symmetric
    results = []
    for resp in [d for d in dirs if not d.is_unity] + [UNITY]:
        r = dirs.index(resp)
        spec = ModelSpec(response=resp, regressors=tuple(dirs[:r] + dirs[r + 1:]))
        try:
            results.append(RotationResult(
                response=resp, fit=_cofactor_fit(lat, spec, cof[r], r, exps)))
        except SingularSystemError as err:
            results.append(RotationResult(response=resp, error=err))
    return results


def residual_report(fit_result: FitResult, data: Dataset) -> dict:
    """Per-row residuals and error sums for a fit.

    Returns a mapping with deterministic key order: ``"model"``,
    ``"residuals"``, ``"sse"`` (:func:`math.fsum` of the squared per-row
    residuals), and for non-response fits additionally
    ``"system_error"``, the error in the system sum(1 - sum_j c_j reg_j)^2
    (identical to the SSE there, since the response is the constant 1).
    An SSE outside the float range raises
    :class:`~latreg.errors.NonFiniteResultError`, as ``FitResult.sse``
    does.
    """
    spec = fit_result.spec
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = data.evaluate(spec.response) - fit_result.predict(data)
        squares = (residuals * residuals).tolist()
    try:
        sse = math.fsum(squares)
    except OverflowError:
        sse = math.inf
    if not math.isfinite(sse):
        raise NonFiniteResultError(
            f"SSE of {spec.label!r} is outside the float range")
    report: dict = {
        "model": spec.label,
        "residuals": residuals.tolist(),
        "sse": sse,
    }
    if spec.is_non_response:
        # The response is the constant 1, so each residual is 1 - prediction.
        report["system_error"] = report["sse"]
    return report
