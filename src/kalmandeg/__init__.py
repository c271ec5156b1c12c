"""Exact enumerative invariants of Kalman varieties of partially symmetric tensors.

The package computes the degree factors of generalized Kalman varieties by
multivariate coefficient extraction, the rational generating function of those
factors, degrees of totally isotropic Kalman varieties, codimensions of
repeated-singular-tuple varieties, and hypercubical asymptotic estimates.
Each exact-valued public name is checked against independent computational
routes in the test suite; ``tests/routes.py`` lists them, and the names that
have fewer than two.
"""

from .asympt import (
    AsymptoticEstimate,
    ComparisonRow,
    CriticalConstants,
    CriticalPointReport,
    asymptotic_degree,
    compare_exact_asymptotic,
    critical_constants,
    ratio_to_exact,
    verify_critical_point,
)
from .degrees import (
    CodimVec,
    TensorFormat,
    extract_degree,
    kalman_degree,
    symmetric_degree,
)
from .genfun import (
    RationalSeries,
    build_H,
    build_H_via_determinant,
    expand_series,
    macmahon_check,
)
from .isotropic import (
    IsotropicResult,
    isotropic_degree,
    isotropic_degree_symmetric,
    partition_tuple_codim,
    symmetric_tuple_codim,
)
from .polycore import TPoly

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "CodimVec",
    "ComparisonRow",
    "CriticalConstants",
    "CriticalPointReport",
    "IsotropicResult",
    "RationalSeries",
    "TPoly",
    "TensorFormat",
    "asymptotic_degree",
    "build_H",
    "build_H_via_determinant",
    "compare_exact_asymptotic",
    "critical_constants",
    "expand_series",
    "extract_degree",
    "isotropic_degree",
    "isotropic_degree_symmetric",
    "kalman_degree",
    "macmahon_check",
    "partition_tuple_codim",
    "ratio_to_exact",
    "symmetric_degree",
    "symmetric_tuple_codim",
    "verify_critical_point",
]
