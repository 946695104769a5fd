"""Exact hulls of linear codes over small finite fields, diagonal
Gramian constructions, and entanglement-assisted quantum code
parameters, all in exact arithmetic."""

__version__ = "0.1.0"

from .gf import FieldSpec, make_field
from .matfq import MatrixFq, dot, pair_reduce_diagonal, row_space_equal, vstack
from .codes import (DEFAULT_BUDGET, BudgetExceeded, HullReport, LinearCode,
                    dual, hull, hull_dimension_via_gramian, is_hull_maximal_so_in,
                    is_lcd, is_self_orthogonal, make_code, min_distance,
                    random_code, random_invertible)
from .diag import (DiagonalizationResult, HullNotMaximalError, NotLcdError,
                   diagonalize_maximal_hull, diagonalize_odd,
                   orthogonal_basis_lcd, pair_diagonal_generators)
from .eaqecc import (EaqeccRecord, ExtensionCertificate,
                     ExtensionVerificationError, RateReport, base_params,
                     extend_euclidean, extend_hermitian, rate_report)

__all__ = [
    "FieldSpec", "make_field",
    "MatrixFq", "dot", "pair_reduce_diagonal", "row_space_equal", "vstack",
    "DEFAULT_BUDGET", "BudgetExceeded", "HullReport", "LinearCode",
    "dual", "hull", "hull_dimension_via_gramian", "is_hull_maximal_so_in",
    "is_lcd", "is_self_orthogonal", "make_code", "min_distance",
    "random_code", "random_invertible",
    "DiagonalizationResult", "HullNotMaximalError", "NotLcdError",
    "diagonalize_maximal_hull", "diagonalize_odd",
    "orthogonal_basis_lcd", "pair_diagonal_generators",
    "EaqeccRecord", "ExtensionCertificate", "ExtensionVerificationError",
    "RateReport", "base_params", "extend_euclidean", "extend_hermitian",
    "rate_report",
]
