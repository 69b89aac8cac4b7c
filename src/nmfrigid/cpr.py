"""Rigidity of symmetric factorizations M = A A^T.

The factor A is unique up to the orthogonal group, whose tangent space at
the identity consists of skew-symmetric matrices; coordinates here are the
above-diagonal entries d_{kl}, k < l, in row-major pair order.  Each zero
of A cuts the motion cone by one linear inequality, so the whole machinery
of the nonsymmetric case applies with r(r-1)/2 in place of r^2 - r, with
one structural difference: there are no trivial deformations, so a factor
is infinitesimally rigid exactly when its motion cone is the origin, and
anything else is definitively not rigid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactlin import RationalMatrix, matmul, rank
from .patterns import NecessaryConditionsReport, ZeroSupport, condition_report
from .rigidity import (
    DEFAULT_KRUSKAL_BUDGET, DualConeGenerators, RigidityCertificate,
    _build_generators, _certify_generators, _cleared, _IntegerForm, _require_nonnegative,
)


@dataclass(frozen=True)
class SymmetricFactor:
    """Nonnegative n x r factor of full rank r."""

    a: RationalMatrix

    def __post_init__(self):
        _require_nonnegative("A", self.a, self._form.a_rows)
        if rank(self.a) != self.a.cols:
            raise ValueError(f"A has rank below {self.a.cols}")

    @cached_property
    def _form(self) -> _IntegerForm:  # cleared once, when the check above reads it
        return _cleared(self.r, self.a.row_list(), ())

    @property
    def r(self) -> int:
        return self.a.cols

    @property
    def n(self) -> int:
        return self.a.rows

    def gram(self) -> RationalMatrix:
        return matmul(self.a, self.a.transpose())


def skew_coordinate_pairs(r: int) -> tuple[tuple[int, int], ...]:
    """Row-major above-diagonal pair order (0,1), (0,2), ..., (r-2,r-1)."""
    return tuple((k, l) for k in range(r) for l in range(k + 1, r))


def build_skew_generators(factor: SymmetricFactor) -> DualConeGenerators:
    """One generator per zero of A, in row-major order over the entries.

    The zero at (i, j) imposes d_j . a_i >= 0 on skew matrices D: its pair
    generator g, read at each above-diagonal pair (k, l) as g[k, l] - g[l, k]
    (+a_{i,k} at (k, j), -a_{i,l} at (j, l)).  For r = 1 the tangent space
    is zero dimensional and the list is empty.
    """
    r = factor.r
    return _build_generators(r, skew_coordinate_pairs(r), factor._form if r >= 2 else _cleared(r, [], ()), symmetric=True)


def certify_cp(
    factor: SymmetricFactor, kruskal_budget: int = DEFAULT_KRUSKAL_BUDGET
) -> RigidityCertificate:
    """Certificate for a symmetric factor; rigid means the motion cone is {0}.

    Infinitesimally rigid exactly when the skew generators positively span
    the full r(r-1)/2-dimensional tangent space; since the symmetric
    setting has no trivial deformations, every other outcome is reported as
    not rigid.  For r <= 1 the tangent space is trivial and the factor is
    rigid vacuously.
    """
    return _certify_generators(build_skew_generators(factor), kruskal_budget)


# The conditions of `rigidity._CONDITIONS`, labelled for a symmetric factor.
# Positivity of the Gram matrix is necessary only for r >= 3: at r = 2 the
# two zeros of a rigid tight factor can sit in complementary rows (the 2x2
# coordinate permutation is rigid with Gram matrix I), so the
# subset-minimality argument behind the corollary has nothing to bite.
_CP_CONDITIONS = (
    ("zero-count", (), "enough-zeros", "{count} zeros, need at least {tight}"),
    ("boundary-closed", (), "closed-a", "each ordered inner pair separated by some row of A"),
    ("column-coverage", (), "covered", "every column of A contains a zero"),
    ("row-zero-bound", ("positive",), "row-bound",
     "at most r-2 zeros per row of A (Gram matrix strictly positive)"),
    ("column-zero-bound", ("tight",), "column-bound",
     "at most r-1 zeros per column of A (tight zero count)"),
    ("zero-rectangles", ("tight",), "no-rectangle",
     "no k x |alpha| zero block with k > r - |alpha| (tight zero count)",
     "{k} rows zero on columns {alpha}"),
    ("gram-positive", ("tight", "r>=3"), "positive",
     "a rigid factor with the tight zero count has strictly positive Gram matrix (r >= 3)"),
)


def cp_necessary_conditions(factor: SymmetricFactor) -> NecessaryConditionsReport:
    """Combinatorial necessary conditions on the zero pattern of A.

    The tight count is r(r-1)/2+1.  No condition applies at r = 1, where
    the tangent space is zero and every factor is rigid.
    """
    return condition_report(ZeroSupport.of(factor.r, factor._form.zeros_a), _CP_CONDITIONS)
