"""The vertex-based mean operator and its weighted-mean families.

Starting from a vertex (a, b) and estimating in direction d, the mean
operator is sum(a*b*d) / sum(a*b).  Vertex (1, 1) gives the standard
mean, vertex (1, x) in direction x gives the self-weighting mean
sum(x^2)/sum(x), and vertex (1, w) in direction x gives the mean of x
randomly weighted by another measure w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroWeightError
from .lattice import Dataset, Direction, UNITY, checked_fsum

__all__ = [
    "MeanRequest",
    "mean_operator",
    "standard_mean",
    "self_weighting_mean",
    "weighted_mean",
    "simulate_convergence",
]

#: Relative floor under which a weight sum counts as zero.
ZERO_WEIGHT_EPS = 1e-12


@dataclass(frozen=True)
class MeanRequest:
    """A starting vertex (the weights) and a target direction to estimate."""

    vertex: tuple[Direction, Direction]
    target: Direction


def mean_operator(data: Dataset, req: MeanRequest) -> float:
    """Weighted mean sum(a*b*d) / sum(a*b) for vertex (a, b), target d.

    Sums are compensated.  Raises :class:`ZeroWeightError` when the
    denominator is zero relative to the total weight magnitude,
    |sum(ab)| <= 1e-12 * sum(|ab|), which also covers all-zero weights.
    """
    a, b = req.vertex
    weights = data.evaluate(a) * data.evaluate(b)
    target = data.evaluate(req.target)
    denominator, magnitude, numerator = [
        checked_fsum(v, "mean of {} over vertex ({}, {})", req.target, a, b)
        for v in (weights, np.abs(weights), weights * target)]
    if abs(denominator) <= ZERO_WEIGHT_EPS * magnitude:
        raise ZeroWeightError(
            f"weight sum over vertex ({a.label}, {b.label}) is numerically zero")
    return numerator / denominator


def standard_mean(data: Dataset, col: str) -> float:
    """Plain mean of a column: the mean operator from vertex (1, 1)."""
    return mean_operator(data, MeanRequest((UNITY, UNITY), Direction(col)))


def self_weighting_mean(data: Dataset, col: str) -> float:
    """sum(x^2) / sum(x): the mean of x weighted by x itself.

    Equals the reciprocal of the least squares coefficient of the
    implicit model 1 = alpha * x.  Raises :class:`ZeroWeightError` when
    sum(x) is numerically zero.
    """
    d = Direction(col)
    return mean_operator(data, MeanRequest((UNITY, d), d))


def weighted_mean(data: Dataset, col: str, weight_col: str) -> float:
    """Mean of ``col`` using another column as random weights:
    sum(x*w) / sum(w)."""
    return mean_operator(
        data, MeanRequest((UNITY, Direction(weight_col)), Direction(col)))


def simulate_convergence(seed: int, n: int, mu: float, sigma: float,
                         trials: int) -> dict[str, float | int]:
    """Seeded Monte Carlo comparison of the weighted means with the
    standard mean.

    Each trial draws x ~ Normal(mu, sigma) of length n and independent
    weights ~ Uniform(0, 1), then records |weighted mean - standard mean|
    and |self-weighting mean - standard mean|.  For large mu relative to
    sigma both deviations are small: the random-weight deviation scales
    like sigma * sqrt(sum(w^2)) / sum(w) and the self-weighting deviation
    like sigma^2 / mu.

    Deterministic for a given seed (numpy PCG64 generator).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    for name, value in (("mu", mu), ("sigma", sigma)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    random_devs = []
    self_devs = []
    for _ in range(trials):
        data = Dataset({
            "x": rng.normal(mu, sigma, n),
            "w": rng.uniform(0.0, 1.0, n),
        })
        xbar = standard_mean(data, "x")
        random_devs.append(abs(weighted_mean(data, "x", "w") - xbar))
        self_devs.append(abs(self_weighting_mean(data, "x") - xbar))
    return {
        "seed": int(seed),
        "n": int(n),
        "mu": float(mu),
        "sigma": float(sigma),
        "trials": int(trials),
        "random_weight_dev_max": max(random_devs),
        "random_weight_dev_mean": math.fsum(random_devs) / trials,
        "self_weight_dev_max": max(self_devs),
        "self_weight_dev_mean": math.fsum(self_devs) / trials,
    }
