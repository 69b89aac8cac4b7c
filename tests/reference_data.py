"""Reference pairs and zero patterns that only the tests read.

The symmetric 3x3 circulant whose deformation space is four dimensional,
a small rank-3 pair with its partially rigid rank-4 lift, three reference
zero patterns used by the pattern tests, and a reading of condition
reports.  The 15 rigid 5x5 benchmark pairs stay in `nmfrigid.fixtures`,
where the command line reads them.
"""

from nmfrigid.exactlin import RationalMatrix
from nmfrigid.fixtures import IntRows
from nmfrigid.patterns import ZeroPattern
from nmfrigid.rigidity import FactorizationPair


# Symmetric circulant: six zeros, the generators span a 5-dimensional space
# and the deformation cone is a 4-dimensional linear space, yet the product
# is interior, so no rigidity class applies.
CIRCULANT_3X3_M: IntRows = ((2, 1, 1), (1, 2, 1), (1, 1, 2))
CIRCULANT_3X3_FACTOR: IntRows = ((0, 1, 1), (1, 0, 1), (1, 1, 0))


def circulant_pair() -> FactorizationPair:
    f = RationalMatrix.from_rows(CIRCULANT_3X3_FACTOR)
    return FactorizationPair(f, f)


# Rank-3 rigid pair and its rank-4 lift: the lift is partially rigid with
# deformations supported on the off-diagonal of the last column.
LIFT_DEMO_A: IntRows = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0))
LIFT_DEMO_B: IntRows = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
LIFT_DEMO_LIFTED_A: IntRows = ((0, 1, 2, 1), (1, 0, 2, 1), (2, 1, 0, 1), (1, 2, 0, 2))
LIFT_DEMO_LIFTED_B: IntRows = (
    (0, 1, 1, 1),
    (1, 0, 1, 1),
    (1, 1, 0, 1),
    (0, 0, 0, 1),
)


def lift_demo_pair() -> FactorizationPair:
    return FactorizationPair(
        RationalMatrix.from_rows(LIFT_DEMO_A), RationalMatrix.from_rows(LIFT_DEMO_B)
    )


def lift_demo_lifted_pair() -> FactorizationPair:
    return FactorizationPair(
        RationalMatrix.from_rows(LIFT_DEMO_LIFTED_A),
        RationalMatrix.from_rows(LIFT_DEMO_LIFTED_B),
    )


def _pattern(m: int, n: int, r: int, a_rows: tuple[str, ...], b_rows: tuple[str, ...]) -> ZeroPattern:
    zeros_a = tuple(tuple(ch == "0" for ch in row) for row in a_rows)
    zeros_b = tuple(tuple(ch == "0" for ch in row) for row in b_rows)
    return ZeroPattern(m, n, r, zeros_a, zeros_b)


def unique_7_zero_pattern_r3() -> ZeroPattern:
    """The only 7-zero rank-3 pattern that passes the count and pair filters."""
    return _pattern(
        4, 3, 3,
        ("0..", ".0.", "..0", "..0"),
        ("0..", ".0.", "..0"),
    )


def twelve_zero_pattern_5x7() -> ZeroPattern:
    """A 12-zero rank-4 pattern: one zero short of the rigidity threshold."""
    return _pattern(
        5, 7, 4,
        ("0...", ".0..", "..0.", "...0", "...0"),
        ("00.....", "..00...", "....00.", "......0"),
    )


def rectangle_violation_pattern_6x5() -> ZeroPattern:
    """The unique 13-zero 6x5 representative rejected by the rectangle test."""
    return _pattern(
        6, 5, 4,
        ("00..", "00..", "0...", ".0..", "..0.", "...0"),
        ("..0..", "...0.", "00...", "....0"),
    )


def all_applicable_pass(report) -> bool:
    """Whether every condition of a necessary-conditions report that applies passes."""
    return all(c.passed for c in report.conditions if c.applicable)
