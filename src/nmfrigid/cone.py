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
terminates in exact arithmetic without perturbation.  It pivots on Python
ints with the fraction-free step of `exactlin`, so, as there, Fraction
appears only at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactlin import (
    RationalMatrix,
    Vector,
    _coerce,
    eliminate,
    is_zero_vector,
    matvec,
    rank,
    vec_dot,
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

    The tableau is integer: each structural column and the right-hand side
    are scaled by the lcm of their own denominators, positive scalings that
    keep every reduced-cost sign and the order of every ratio, so the pivots
    are those of the rational simplex.  Each pivot is one `eliminate` step,
    the reduced-cost row riding along as the last row; Fraction appears only
    in the shift by the lower bounds and in the point handed back.
    """
    n_rows, n_cols = equalities.rows, equalities.cols
    rhs = [_coerce(b) for b in rhs]
    lower_bounds = [_coerce(x) for x in lower_bounds]
    if len(rhs) != n_rows:
        raise ValueError(f"rhs of length {len(rhs)} against {n_rows} equality rows")
    if len(lower_bounds) != n_cols:
        raise ValueError(f"{len(lower_bounds)} lower bounds for {n_cols} variables")

    # Shift to y = x - lower_bounds >= 0.
    shifted_rhs = [b - vec_dot(equalities.row(i), lower_bounds) for i, b in enumerate(rhs)]

    # Rows with negative right-hand side are negated so artificials start
    # feasible at value |shifted_rhs|; the artificial block is the identity,
    # so the first pivot runs at prev = 1.
    scales = [lcm(*(x.denominator for x in equalities.column(j))) for j in range(n_cols)]
    scales.append(lcm(*(b.denominator for b in shifted_rhs)))
    table: list[list[int]] = []
    for i, b in enumerate(shifted_rhs):
        sign = -1 if b < 0 else 1
        row = [sign * x.numerator * (s // x.denominator) for x, s in zip(equalities.row(i), scales)]
        row.extend(1 if k == i else 0 for k in range(n_rows))
        row.append(sign * b.numerator * (scales[-1] // b.denominator))
        table.append(row)

    basis = [n_cols + i for i in range(n_rows)]  # the artificial variables

    # Reduced-cost row for minimizing the sum of artificials.
    cost = [0] * n_cols + [1] * n_rows + [0]
    for row in table:
        cost = [c - x for c, x in zip(cost, row)]
    table.append(cost)

    prev = 1  # every row is prev times its rational value, prev > 0
    while True:
        cost = table[-1]
        entering = next((j for j, c in enumerate(cost[:-1]) if c < 0), None)
        if entering is None:
            break
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
        prev = eliminate(table, leaving, entering, prev)
        basis[leaving] = entering

    if cost[-1] != 0:  # the optimal artificial sum is -cost[-1] / prev
        return None

    x = list(lower_bounds)
    for i, var in enumerate(basis):
        if var < n_cols:
            x[var] += Fraction(table[i][-1] * scales[var], prev * scales[-1])
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
    each >= 1, combining the columns to zero."""
    if len(coefficients) != generators.cols or any(c < 1 for c in coefficients):
        return False
    return is_zero_vector(matvec(generators, coefficients))
