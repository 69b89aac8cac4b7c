"""Exact polyhedral-cone primitives.

A cone is given by its generator matrix G, one column per generator, so a
certification builds G once and hands the same matrix to the kernel, the
relative-interior LP and the lineality LPs.  One exact phase-1 simplex
decides whether an equality system with lower bounds has a feasible point,
and two cone questions are put to it: is zero a strictly positive
combination of all generators (which holds exactly when the cone is a
linear subspace), and how large is the lineality space?  That space is
spanned by the two-sided generators, whose set grows by the support of one
nonnegative kernel vector per LP until an LP finds no more.  The
certification in `rigidity` reads the relative-interior witness and the
lineality off the generator kernel when that kernel has dimension at most
one, so these LPs run there only when it has dimension two or more; they
remain the reference the kernel answers are tested against.

No facet or vertex description is ever computed; rank plus these LPs
cover everything callers need, and the simplex with Bland's rule
terminates in exact arithmetic without perturbation.  It shifts by the
lower bounds and pivots on Python ints, with the fraction-free step of
`exactlin`, and `verify_witness` sums on ints too, so, as there, Fraction
appears only at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactlin import (
    RationalMatrix,
    Vector,
    _coerce,
    _integer_rows,
    eliminate,
    integer_multiple,
    rank,
    zero_vector,
)


def lp_feasible(
    equalities: RationalMatrix,
    rhs: Vector,
    lower_bounds: Vector,
) -> Vector | None:
    """Exact feasible point of  equalities @ x = rhs,  x >= lower_bounds.

    Phase-1 simplex with Bland's rule (lowest eligible index enters; ties in
    the ratio test break toward the lowest basic index), so the result is
    deterministic given the input order.  Returns the point found or None
    when the system is infeasible.  `rhs` and `lower_bounds` take what
    `RationalMatrix` entries take: ints, Fractions and strings, not floats.

    The tableau is integer: the structural columns, each scaled by the lcm
    of its denominators, and the right-hand side shifted by the lower
    bounds, computed on those integer columns and scaled by
    d = lcm(scales[j] * den lower_bounds[j], den rhs[i]) over the nonzero
    bounds.  Positive scalings keep every reduced-cost sign and ratio order,
    so the pivots are those of the rational simplex.  Each pivot is one
    `eliminate` step, the cost row riding along as the last row; Fraction
    appears only in the inputs and in the point handed back.  Row i is
    levels[i] times its rational value, and every level is a past pivot, so
    positive: a reduced-cost sign is the sign of its entry, a ratio is taken
    within one row where the level cancels, and the point reads
    table[i][-1] * scales[var] / (levels[i] * d).  Leaving out the
    artificials' identity block is exact.  Bland's rule enters an
    artificial only when no structural column qualifies, and at a positive
    objective that basis proves the system infeasible.  At objective 0
    every pivot is degenerate and keeps the point, so the simplex stops
    there.  `eliminate` acts on each column alone, so the levels and the
    kept entries are those of the full tableau.
    """
    n_rows, n_cols = equalities.rows, equalities.cols
    rhs = [_coerce(b) for b in rhs]
    lower_bounds = [_coerce(x) for x in lower_bounds]
    if len(rhs) != n_rows:
        raise ValueError(f"rhs of length {len(rhs)} against {n_rows} equality rows")
    if len(lower_bounds) != n_cols:
        raise ValueError(f"{len(lower_bounds)} lower bounds for {n_cols} variables")

    # Shift to y = x - lower_bounds >= 0: row i's right-hand side times d
    # is rhs[i]*d - sum_j row[j] * lower_bounds[j] * d / scales[j].
    scales = [lcm(*(x.denominator for x in equalities.column(j))) for j in range(n_cols)]
    d = lcm(*(s * x.denominator for x, s in zip(lower_bounds, scales) if x), *(b.denominator for b in rhs))
    weights = [
        (j, x.numerator * (d // (s * x.denominator)))
        for j, (x, s) in enumerate(zip(lower_bounds, scales))
        if x
    ]
    table: list[list[int]] = []
    for i, b in enumerate(rhs):
        row = [x.numerator * (s // x.denominator) for x, s in zip(equalities.row(i), scales)]
        row.append(b.numerator * (d // b.denominator) - sum(row[j] * w for j, w in weights))
        # Rows with negative right-hand side are negated so artificials start >= 0.
        table.append([-x for x in row] if row[-1] < 0 else row)

    basis = [n_cols + i for i in range(n_rows)]  # markers of basic artificials

    # Reduced-cost row for minimizing the sum of artificials.
    cost = [0] * (n_cols + 1)
    for row in table:
        cost = [c - x for c, x in zip(cost, row)]
    table.append(cost)

    levels = [1] * (n_rows + 1)  # row i is levels[i] > 0 times its rational value
    prev = 1
    while cost[-1] != 0:  # the artificial sum is -cost[-1] / levels[-1]
        entering = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if entering is None:
            return None
        leaving = None
        for i in range(n_rows):
            coef = table[i][entering]
            if coef > 0:
                if leaving is not None:
                    # Compare table[i][-1] / coef with the best ratio.
                    here = table[i][-1] * table[leaving][entering]
                    best = table[leaving][-1] * coef
                    if here > best or (here == best and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving is None:  # impossible: the phase-1 objective is at least 0
            raise RuntimeError("phase-1 simplex detected an unbounded direction")
        prev = eliminate(table, levels, leaving, entering, prev)
        basis[leaving] = entering
        cost = table[-1]

    x = list(lower_bounds)
    for i, var in enumerate(basis):
        if var < n_cols:
            x[var] += Fraction(table[i][-1] * scales[var], levels[i] * d)
    return tuple(x)


def zero_in_relative_interior(generators: RationalMatrix) -> Vector | None:
    """Coefficients, one per column of `generators` and each >= 1, that
    combine the columns to zero, or None when there are none.

    They exist iff the cone equals its linear span.  Cones are scale
    invariant, so the open condition "all coefficients > 0" is solved as the
    closed, LP-expressible condition "all coefficients >= 1".  No columns
    describe the cone {0}, a linear space, and get the empty witness ().
    """
    return lp_feasible(
        generators, zero_vector(generators.rows), (Fraction(1),) * generators.cols
    )


def lineality_dimension(generators: RationalMatrix) -> int:
    """Dimension of the largest linear subspace contained in the cone of the
    columns of `generators`.

    That subspace is spanned by the two-sided generators, so its dimension
    is their rank.  Generator g_i is two-sided exactly when some lambda >= 0
    with G lambda = 0 has lambda_i > 0 (-g_i = sum mu_j g_j is lambda =
    mu + e_i).  Each LP asks for such a lambda of weight 1 on the generators
    not yet known to be two-sided and adds its support, at least one new
    generator; once it is infeasible none of the rest is.  So at most one
    LP more than there are two-sided generators runs.
    """
    count = generators.cols
    rhs = zero_vector(generators.rows) + (Fraction(1),)
    two_sided: set[int] = set()
    while len(two_sided) < count:
        rest = tuple(Fraction(j not in two_sided) for j in range(count))
        point = lp_feasible(
            RationalMatrix(generators.rows + 1, count, generators.data + rest),
            rhs,
            zero_vector(count),
        )
        if point is None:
            break
        two_sided.update(j for j, x in enumerate(point) if x)
    columns = [generators.column(j) for j in sorted(two_sided)]
    return rank(RationalMatrix.from_columns(columns, generators.rows)) if columns else 0


def verify_witness(generators: RationalMatrix, coefficients: Vector) -> bool:
    """Re-check a witness by plain arithmetic: one coefficient per column,
    each >= 1, combining the columns to zero.

    The sums are taken on integers: the coefficients and each row of
    `generators` are cleared of denominators once, positive scalings that
    keep every sum's zero."""
    if len(coefficients) != generators.cols or any(c < 1 for c in coefficients):
        return False
    weights = integer_multiple(coefficients)
    return all(sum(x * w for x, w in zip(row, weights) if x) == 0 for row in _integer_rows(generators))
