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
from fractions import Fraction

from .exactlin import RationalMatrix, Vector, matmul, rank
from .patterns import (
    _col_masks,
    _decode_rows,
    _pairwise_separating,
    _require_attainable_rank,
    _row_masks,
    _side_classes,
    _side_key,
    rectangle_violation_from_masks,
)
from .rigidity import (
    DEFAULT_KRUSKAL_BUDGET,
    ConditionResult,
    DualConeGenerators,
    GeneratorSource,
    NecessaryConditionsReport,
    RigidityCertificate,
    _certify_generators,
    _require_nonnegative,
)


@dataclass(frozen=True)
class SymmetricFactor:
    """Nonnegative n x r factor of full rank r."""

    a: RationalMatrix

    def __post_init__(self):
        _require_nonnegative("A", self.a)
        if rank(self.a) != self.a.cols:
            raise ValueError(f"A has rank below {self.a.cols}")

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

    The zero at (i, j) imposes d_j . a_i >= 0 on skew matrices D; in the
    above-diagonal coordinates the functional has +a_{i,k} at pair (k, j)
    with k < j and -a_{i,l} at pair (j, l) with l > j.  For r = 1 the
    tangent space is zero dimensional and the generator list is empty.
    """
    r = factor.r
    pairs = skew_coordinate_pairs(r)
    index = {pair: pos for pos, pair in enumerate(pairs)}
    vectors: list[Vector] = []
    sources: list[GeneratorSource] = []
    if r >= 2:
        for i in range(factor.n):
            row = factor.a.row(i)
            for j in range(r):
                if row[j] == 0:
                    vec = [Fraction(0)] * len(pairs)
                    for k in range(j):
                        vec[index[(k, j)]] = row[k]
                    for l in range(j + 1, r):
                        vec[index[(j, l)]] = -row[l]
                    vectors.append(tuple(vec))
                    sources.append(GeneratorSource("A", i, j))
    return DualConeGenerators(r, len(pairs), tuple(vectors), tuple(sources))


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
    return _certify_generators(
        build_skew_generators(factor), kruskal_budget=kruskal_budget, symmetric=True
    )


def cp_necessary_conditions(factor: SymmetricFactor) -> NecessaryConditionsReport:
    """Combinatorial necessary conditions on the zero pattern of A."""
    r = factor.r
    zeros = [[x == 0 for x in row] for row in factor.a.row_list()]
    col_masks = _col_masks(zeros, r)
    row_masks = _row_masks(zeros)
    row_zero_counts = [mask.bit_count() for mask in row_masks]
    c = sum(row_zero_counts)
    tight = r * (r - 1) // 2 + 1
    results: list[ConditionResult] = []

    results.append(
        ConditionResult("zero-count", True, c >= tight, f"{c} zeros, need at least {tight}")
    )
    results.append(
        ConditionResult(
            "boundary-closed",
            True,
            _pairwise_separating(col_masks),
            "each ordered inner pair separated by some row of A",
        )
    )
    results.append(
        ConditionResult(
            "column-coverage",
            True,
            all(col_masks),
            "every column of A contains a zero",
        )
    )

    gram = factor.gram()
    positive = gram.is_strictly_positive()
    results.append(
        ConditionResult(
            "row-zero-bound",
            positive,
            all(z <= r - 2 for z in row_zero_counts) if positive else None,
            "at most r-2 zeros per row of A (Gram matrix strictly positive)",
        )
    )

    tight_case = c == tight
    results.append(
        ConditionResult(
            "column-zero-bound",
            tight_case,
            all(mask.bit_count() <= r - 1 for mask in col_masks) if tight_case else None,
            "at most r-1 zeros per column of A (tight zero count)",
        )
    )
    # With no B side the pair search fires exactly when k > r - |alpha|,
    # at the first such alpha and with beta empty.
    rect = rectangle_violation_from_masks(r, row_masks, ()) if tight_case else None
    results.append(
        ConditionResult(
            "zero-rectangles",
            tight_case,
            (rect is None) if tight_case else None,
            "no k x |alpha| zero block with k > r - |alpha| (tight zero count)"
            if rect is None
            else f"{rect.k} rows zero on columns {rect.alpha}",
        )
    )
    # Positivity of the Gram matrix is necessary only for r >= 3: at r = 2
    # the two zeros of a rigid tight factor can sit in complementary rows
    # (the 2x2 coordinate permutation is rigid with Gram matrix I), so the
    # subset-minimality argument behind the corollary has nothing to bite.
    gram_applicable = tight_case and r >= 3
    results.append(
        ConditionResult(
            "gram-positive",
            gram_applicable,
            positive if gram_applicable else None,
            "a rigid factor with the tight zero count has strictly positive Gram matrix (r >= 3)",
        )
    )
    return NecessaryConditionsReport(tuple(results))


def canonical_symmetric_pattern(zeros_a: tuple[tuple[bool, ...], ...]) -> tuple[tuple[bool, ...], ...]:
    """Canonical form of a factor zero pattern under row and column permutations.

    No transpose and no second factor here: a symmetric factor is one side
    of a pair pattern, so this is the side key of `patterns` (rows sorted,
    row-major reading minimized over all column permutations), decoded.
    """
    n = len(zeros_a)
    r = len(zeros_a[0]) if n else 0
    return _decode_rows(_side_key(_col_masks(zeros_a, r), n, r)[0], r)


def enumerate_symmetric_patterns(
    n: int, r: int, zeros: int, require_pairs: bool = True, column_bound: bool = False
) -> list[tuple[tuple[bool, ...], ...]]:
    """Canonical factor zero patterns with the given zero count.

    `require_pairs` imposes the one-sided boundary-closed condition (some
    row zero at i and nonzero at j for every ordered pair), which is the
    symmetric counterpart of the rigidity count filter; `column_bound`
    imposes at most r-1 zeros per column.  The columns of A are generated
    and reduced to orbit representatives by the side generator of
    `patterns`, which also rejects an all-zero row of A (it drops no rank
    but is never realizable).  No published counts exist for this case, so
    the enumeration is provided as a generic tool only.
    """
    if n < 1 or r < 1 or zeros < 0:
        raise ValueError("dimensions must be positive and zeros nonnegative")
    _require_attainable_rank(n, n, r)
    cap = min(n, r - 1 if column_bound else n)
    sides = _side_classes(n, r, cap, require_pairs, False, zeros, zeros)
    return sorted(_decode_rows(key, r) for _, key, _ in sides.get(zeros, ()))
