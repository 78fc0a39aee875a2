"""Lattice-design regression.

A small algebra over named data columns carries every least squares fit
in this package: the pairwise sums-of-products of a dataset (its
"vertices") combine into signed determinants that are the variances,
covariances, and normal-equation systems of standard, rotated, and
implicit (non-response) linear models in one to three variables.

Modules
-------
lattice
    Directions, datasets, vertex caches, joins, and the determinant
    family.
means
    The vertex-based mean operator and the standard, self-weighting,
    and randomly weighted mean families.
estimators
    Fitting by cofactor rows of one vertex matrix, rotation sweeps, and
    residual reports.
dataio
    CSV ingestion and report serialization (text and JSON).
cli
    The ``latreg`` command-line front end.

Each library module's ``__all__`` declares its public names; the package
root re-exports all of them.
"""

from .dataio import *
from .errors import *
from .estimators import *
from .formula import *
from .lattice import *
from .means import *
from . import dataio, errors, estimators, formula, lattice, means

__version__ = "0.1.0"

__all__ = sorted({name for module in (dataio, errors, estimators, formula,
                                      lattice, means)
                  for name in module.__all__})
