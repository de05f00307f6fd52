"""Certified dimension computations for infinite contraction systems.

The package solves Moran-type equations sum(ratio(a)**s) = 1 with
two-sided certificates, expands certified dimension clouds over coded
subsystems, measures their covering profiles and local type, sweeps
one-symbol perturbations, and carries an exact sparse model of the
underlying dyadic construction.
"""

from .construction import (
    f_exponents,
    f_tail_bound,
    f_value,
    g_exponent,
    g_value,
    k_set_cloud,
    separation_check,
    sparse_compare,
)
from .errors import (
    CapExceeded,
    ConfigError,
    DegenerateScales,
    DimspecError,
    DivergentSum,
    ExponentBudgetError,
    InsufficientPrecision,
    NumericError,
    ToleranceNotReachable,
)
from .families import ContractionFamily, parse_ratio
from .metrics import (
    box_count,
    box_dimension_estimate,
    classify_type,
    covering_count,
    local_dimension_profile,
    uniform_perfectness_gaps,
)
from .perturbation import (
    derivative_comparability,
    exponent_fit,
    increment,
)
from .solver import (
    DimensionInterval,
    moran_bounds,
    pressure,
    pressure_derivative,
    solve_dimension,
)
from .spectrum import branch_increment, expand_spectrum
from .words import longest_common_prefix, word_of_subset

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ConfigError",
    "ContractionFamily",
    "DegenerateScales",
    "DimensionInterval",
    "DimspecError",
    "DivergentSum",
    "ExponentBudgetError",
    "InsufficientPrecision",
    "NumericError",
    "ToleranceNotReachable",
    "box_count",
    "box_dimension_estimate",
    "branch_increment",
    "classify_type",
    "covering_count",
    "derivative_comparability",
    "expand_spectrum",
    "exponent_fit",
    "f_exponents",
    "f_tail_bound",
    "f_value",
    "g_exponent",
    "g_value",
    "increment",
    "k_set_cloud",
    "local_dimension_profile",
    "longest_common_prefix",
    "moran_bounds",
    "parse_ratio",
    "pressure",
    "pressure_derivative",
    "separation_check",
    "solve_dimension",
    "sparse_compare",
    "uniform_perfectness_gaps",
    "word_of_subset",
]
