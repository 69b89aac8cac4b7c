"""Exact certification of rigidity for nonnegative matrix factorizations.

The package decides, in exact rational arithmetic, whether a factorization
M = AB (or a symmetric factorization M = AA^T) is infinitesimally rigid,
enumerates the candidate zero patterns behind such factorizations, realizes
patterns by seeded random search, and constructs positive extensions and
partially rigid lifts.  See the command line tool `nmfr` for the file-based
interface.
"""

__version__ = "0.1.0"

from .cone import lineality_dimension, lp_feasible, zero_in_relative_interior
from .cpr import SymmetricFactor, build_skew_generators, certify_cp, cp_necessary_conditions
from .exactlin import RationalMatrix, matmul, nullspace_basis, rank
from .patterns import PatternFilter, PatternGroupElement, ZeroPattern, canonical_form, canonical_symmetric_pattern, check_column_bound, check_wpoint, check_zero_rectangles, enumerate_patterns, enumerate_symmetric_patterns, forces_product_zero, table1_filters
from .realize import RealizationSearchConfig, extend_positive, lift_partially_rigid, realize_pattern
from .rigidity import Classification, FactorizationPair, RigidityCertificate, build_dual_generators, certify, necessary_conditions_report

__all__ = [
    "__version__",
    "lineality_dimension",
    "lp_feasible",
    "zero_in_relative_interior",
    "SymmetricFactor",
    "build_skew_generators",
    "certify_cp",
    "cp_necessary_conditions",
    "RationalMatrix",
    "matmul",
    "nullspace_basis",
    "rank",
    "PatternFilter",
    "PatternGroupElement",
    "ZeroPattern",
    "canonical_form",
    "canonical_symmetric_pattern",
    "check_column_bound",
    "check_wpoint",
    "check_zero_rectangles",
    "enumerate_patterns",
    "enumerate_symmetric_patterns",
    "forces_product_zero",
    "table1_filters",
    "RealizationSearchConfig",
    "extend_positive",
    "lift_partially_rigid",
    "realize_pattern",
    "Classification",
    "FactorizationPair",
    "RigidityCertificate",
    "build_dual_generators",
    "certify",
    "necessary_conditions_report",
]
