"""Fitting by cofactor rows of the vertex matrix, for all rotations.

A model is a response direction and one to three regressor directions.
When the response is unity the model is implicit ("non-response"): the
constant 1 is regressed on the data and the error lives in the system
rather than in any single variable.  Rotational analysis refits the same
direction set with each member, unity included, taking the response
role in turn.

Every value of a fit is read from the cofactor matrix C of the integer
vertex matrix G over (response, regressors...): the fit with response r
has system determinant C[r][r] and numerator -C[r][j] for regressor j
(Cramer's rule), and its least squares minimum, the SSE, is the Schur
complement det G / C[r][r], where det G = sum_j G[r][j] C[r][j].  So one
C serves every rotation; the SSE of the implicit fit 1 = x + y is det G
over the base variance delta_xxyy.  For the line y on x the slope
numerator is the covariance determinant n sum(xy) - sum(x) sum(y), the
textbook one; the same determinant with its unity column reversed is
its exact negation.

Coefficients, determinants and the SSE read only the exact vertices of
:mod:`latreg.lattice` and are each rounded once, so a system is singular
exactly when its determinant is 0, and no fit reads the rows.  One
lattice serves a whole request::

    lat = build_lattice(data, [UNITY, x, y])
    line = solve(lat, ModelSpec(response=y, regressors=(UNITY, x)))
    rotations = fit_all_rotations(lat, [UNITY, x, y])
    catalog = measure_catalog(lat, ["x", "y"])

:func:`solve` also takes a dataset, over which it builds the one lattice
it needs; :func:`fit` is that one-model case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import LatregError, NonFiniteResultError, SingularSystemError
from .lattice import (Dataset, Direction, Lattice, UNITY, cofactor,
                      lattice_over, rounded)

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
    determinants in regressor order, and ``exact_determinant`` is det G,
    G the vertex matrix over (response, regressors), each held as
    ``(integer, exponent)``: with V = G 2^scale over k directions, the
    denominator and numerators are (k - 1) x (k - 1) minors of G at
    2^((k - 1) scale), and det G is at 2^(k scale).  ``sse`` is the least
    squares minimum, the sum of squared residuals at the exact
    coefficients: det G / ``denominator``.  Each value is rounded once
    when first read; one outside the float range raises
    :class:`~latreg.errors.NonFiniteResultError` naming it.
    """

    spec: ModelSpec
    exact_denominator: tuple[int, int]
    exact_numerators: tuple[tuple[int, int], ...]
    exact_determinant: tuple[int, int]

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
        """``exact_determinant`` over ``exact_denominator``, rounded once."""
        (det, det_exp), (den, den_exp) = (self.exact_determinant,
                                          self.exact_denominator)
        return rounded(det, det_exp - den_exp, "SSE of {0.label!r}", self.spec,
                       den=den)

    def predict(self, data: Dataset) -> np.ndarray:
        """Fitted values of the response direction on ``data``."""
        out = np.zeros(data.n)
        for c, reg in zip(self.coefficients, self.spec.regressors):
            out = out + c * data.evaluate(reg)
        return out


def solve(source: Dataset | Lattice, spec: ModelSpec) -> FitResult:
    """Fit a model from row 0 of the cofactor matrix over (response,
    regressors...).  ``source`` is a dataset, over which one lattice is
    built (a missing column raises
    :class:`~latreg.errors.ColumnNotFoundError`), or a lattice that caches
    those directions (:class:`~latreg.errors.MissingVertexError`
    otherwise); no row is read after that.  Raises
    :class:`SingularSystemError` when the exact system determinant is 0
    (collinear regressors)."""
    lat = lattice_over(source, [UNITY, *spec.regressors, spec.response])
    g = lat.matrix((spec.response, *spec.regressors))
    return _cofactor_fit(spec, g[0], [cofactor(g, 0, j) for j in range(len(g))],
                         0, lat.scale)


def _cofactor_fit(spec: ModelSpec, g_row: Sequence[int], row: Sequence[int],
                  r: int, scale: int) -> FitResult:
    """``spec`` from row r of the k x k vertex matrix G over its
    directions and row r of its cofactor matrix C, the response at r: V =
    G 2^scale, so each C[r][j], a (k - 1) x (k - 1) minor, carries
    2^((k - 1) scale), and det G = sum_j G[r][j] C[r][j] carries
    2^(k scale)."""
    if row[r] == 0:
        raise SingularSystemError(
            f"singular normal equations for {spec.label!r} (determinant 0.0)")
    k = len(row)
    exp = (k - 1) * scale
    return FitResult(spec, (row[r], exp),
                     tuple((-c, exp) for j, c in enumerate(row) if j != r),
                     (sum(g * c for g, c in zip(g_row, row)), k * scale))


def fit(data: Dataset, spec: ModelSpec) -> FitResult:
    """``solve(data, spec)``: one model over a dataset, where a missing
    column raises :class:`~latreg.errors.ColumnNotFoundError`."""
    return solve(data, spec)


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
    g = lat.matrix(dirs)
    cof = [[0] * len(g) for _ in g]
    for i, j in itertools.combinations_with_replacement(range(len(g)), 2):
        cof[i][j] = cof[j][i] = cofactor(g, i, j)  # G is symmetric
    results = []
    for resp in [d for d in dirs if not d.is_unity] + [UNITY]:
        r = dirs.index(resp)
        spec = ModelSpec(response=resp, regressors=tuple(dirs[:r] + dirs[r + 1:]))
        try:
            results.append(RotationResult(
                response=resp, fit=_cofactor_fit(spec, g[r], cof[r], r, lat.scale)))
        except SingularSystemError as err:
            results.append(RotationResult(response=resp, error=err))
    return results


def residual_report(fit_result: FitResult, data: Dataset) -> dict:
    """Per-row residuals and the error sum of a fit.

    Returns a mapping with deterministic key order: ``"model"``,
    ``"residuals"`` (response minus prediction on each row of ``data``),
    ``"sse"``, which is ``fit_result.sse``, and for non-response fits
    additionally ``"system_error"``, the error in the system
    sum(1 - sum_j c_j reg_j)^2, the same value since the response is the
    constant 1.  The residuals are float arithmetic on the rounded
    coefficients; one that overflows raises
    :class:`~latreg.errors.NonFiniteResultError`, as an SSE outside the
    float range does, so a report never holds nan or an infinity.
    """
    spec = fit_result.spec
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = data.evaluate(spec.response) - fit_result.predict(data)
    if not np.isfinite(residuals).all():
        raise NonFiniteResultError(
            f"a residual of {spec.label!r} overflows the float range")
    report: dict = {"model": spec.label, "residuals": residuals.tolist(),
                    "sse": fit_result.sse}
    if spec.is_non_response:
        report["system_error"] = report["sse"]
    return report
