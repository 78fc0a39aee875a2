"""The vertex-based mean operator and its weighted-mean families.

From a vertex (a, b) in direction d the mean operator is V(a*b, d) /
V(a, b) = sum(a*b*d) / sum(a*b).  Vertex (1, 1) gives the standard mean
V(1, x) / V(1, 1), vertex (1, x) in direction x the self-weighting mean
V(x, x) / V(1, x), and vertex (1, w) in direction x the mean of x
randomly weighted by another measure w, V(w, x) / V(1, w).  The vertices
come from a :class:`Lattice`, so that a request's means share its one
data pass, or from one lattice built over a :class:`Dataset`.  Both are
exact, so a mean is their exact ratio rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroWeightError
from .lattice import (Dataset, Direction, Lattice, UNITY, build_lattice,
                      lattice_over, rounded)

__all__ = [
    "MeanRequest",
    "mean_operator",
    "standard_mean",
    "self_weighting_mean",
    "weighted_mean",
    "simulate_convergence",
]


@dataclass(frozen=True)
class MeanRequest:
    """A starting vertex (the weights) and a target direction to estimate."""

    vertex: tuple[Direction, Direction]
    target: Direction


def mean_operator(source: Dataset | Lattice, req: MeanRequest) -> float:
    """Weighted mean V(a*b, d) / V(a, b) for vertex (a, b), target d,
    read from a lattice that caches both vertices or from one built over
    a dataset; the exact ratio, rounded once.

    Raises :class:`ZeroWeightError` when V(a, b) is exactly 0: for vertex
    (1, w), when the weights sum to exactly 0.  Raises
    :class:`~latreg.errors.NonFiniteResultError` when the ratio is outside
    the float range.
    """
    a, b = req.vertex
    ab, d = a * b, req.target
    lat = lattice_over(source, [UNITY, a, b, ab, d])
    weight = lat.exact(a, b)
    if weight == 0:
        raise ZeroWeightError(
            f"weight sum over vertex ({a.label}, {b.label}) is zero")
    return rounded(lat.exact(ab, d), 0,  # both vertices carry 2^scale
                   "mean V({0.label}, {1.label}) / V({2.label}, {3.label})",
                   ab, d, a, b, den=weight)


def standard_mean(source: Dataset | Lattice, col: str) -> float:
    """Plain mean of a column: the mean operator from vertex (1, 1)."""
    return mean_operator(source, MeanRequest((UNITY, UNITY), Direction(col)))


def self_weighting_mean(source: Dataset | Lattice, col: str) -> float:
    """sum(x^2) / sum(x): the mean of x weighted by x itself.

    Equals the reciprocal of the least squares coefficient of the
    implicit model 1 = alpha * x.  Raises :class:`ZeroWeightError` when
    sum(x) is zero.
    """
    d = Direction(col)
    return mean_operator(source, MeanRequest((UNITY, d), d))


def weighted_mean(source: Dataset | Lattice, col: str, weight_col: str) -> float:
    """Mean of ``col`` using another column as random weights:
    sum(x*w) / sum(w)."""
    return mean_operator(
        source, MeanRequest((UNITY, Direction(weight_col)), Direction(col)))


def simulate_convergence(seed: int, n: int, mu: float, sigma: float,
                         trials: int) -> dict[str, float | int]:
    """Seeded Monte Carlo comparison of the weighted means with the
    standard mean.

    Each trial draws x ~ Normal(mu, sigma) of length n and independent
    weights ~ Uniform(0, 1), builds one lattice over (1, x, w) and records
    |weighted mean - standard mean| and |self-weighting mean - standard
    mean|.  For large mu relative to sigma both deviations are small: the
    random-weight deviation scales like sigma * sqrt(sum(w^2)) / sum(w)
    and the self-weighting deviation like sigma^2 / mu.

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
        x = rng.normal(mu, sigma, n)
        if not np.all(np.isfinite(x)):
            raise ValueError(f"draws from Normal(mu={mu!r}, sigma={sigma!r}) "
                             "overflow the float range")
        data = Dataset({"x": x, "w": rng.uniform(0.0, 1.0, n)})
        lat = build_lattice(data, [UNITY, Direction("x"), Direction("w")])
        xbar = standard_mean(lat, "x")
        random_devs.append(abs(weighted_mean(lat, "x", "w") - xbar))
        self_devs.append(abs(self_weighting_mean(lat, "x") - xbar))
    return {
        "seed": int(seed),
        "n": int(n),
        "mu": float(mu),
        "sigma": float(sigma),
        "trials": int(trials),
        "random_weight_dev_max": max(random_devs),
        "random_weight_dev_mean": _mean(random_devs),
        "self_weight_dev_max": max(self_devs),
        "self_weight_dev_mean": _mean(self_devs),
    }


def _mean(values: list[float]) -> float:
    """The exact mean of ``values``, rounded once, by the mean operator
    over a dataset of them: finite however far their sum leaves the float
    range, and not finite if a value is not."""
    if not all(map(math.isfinite, values)):
        return sum(values)
    return mean_operator(Dataset({"d": values}),
                         MeanRequest((UNITY, UNITY), Direction("d")))
