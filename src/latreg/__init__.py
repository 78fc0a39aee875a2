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
"""

from .dataio import (REPORT_SCHEMA, read_csv, read_lattice, render, write_csv,
                     write_report)
from .errors import (ColumnNotFoundError, CsvFormatError, EmptyDataError,
                     FormulaError, LatregError, MissingVertexError,
                     NonFiniteResultError, SingularSystemError,
                     ZeroWeightError)
from .estimators import (FitResult, ModelSpec, RotationResult, fit,
                         fit_all_rotations, residual_report, solve)
from .formula import parse_model
from .lattice import (Dataset, DeterminantKind, Direction, Lattice, UNITY,
                      build_lattice, det2, det3_general, form_determinant,
                      join, measure_catalog, scaled_sigma)
from .means import (MeanRequest, mean_operator, self_weighting_mean,
                    simulate_convergence, standard_mean, weighted_mean)

__version__ = "0.1.0"

__all__ = [
    "ColumnNotFoundError",
    "CsvFormatError",
    "Dataset",
    "DeterminantKind",
    "Direction",
    "EmptyDataError",
    "FitResult",
    "FormulaError",
    "Lattice",
    "LatregError",
    "MeanRequest",
    "MissingVertexError",
    "ModelSpec",
    "NonFiniteResultError",
    "REPORT_SCHEMA",
    "RotationResult",
    "SingularSystemError",
    "UNITY",
    "ZeroWeightError",
    "build_lattice",
    "det2",
    "det3_general",
    "fit",
    "fit_all_rotations",
    "form_determinant",
    "join",
    "mean_operator",
    "measure_catalog",
    "parse_model",
    "read_csv",
    "read_lattice",
    "render",
    "residual_report",
    "scaled_sigma",
    "self_weighting_mean",
    "simulate_convergence",
    "solve",
    "standard_mean",
    "weighted_mean",
    "write_csv",
    "write_report",
]
