"""Constructive side: random rigid realizations, positive extension, lift.

Realization search samples integer entries uniformly at the free positions
of a zero pattern and keeps the first sample that is infinitesimally rigid
with full-rank factors; everything is driven by a seeded generator, so a
(pattern, config) pair always reproduces the same factorization.  The
accept test is planned once per search from the pattern's zeros, each
sample is decided on plain ints, and only one that passes it is turned
into Fractions and rank-checked as a `FactorizationPair`.  The
positive extension appends rows and columns that add no zeros and hence
change nothing in the certificate.  The lift turns a rigid pair of inner
size r into a partially rigid pair of inner size r+1 by adding a positive
column to A, a zero row and a positive column to B.  The column is solved
exactly from the relative-interior witness by one LP whose unknowns include
the positive weights of B's columns, so it exists exactly when some
weighting admits one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cone import lp_feasible
from .exactlin import RationalMatrix, _shown, rank
from .patterns import ZeroPattern, check_wpoint
from .rigidity import (
    Classification,
    FactorizationPair,
    accept_test,
    build_dual_generators,
    certify,
    is_infinitesimally_rigid,
)


# The refusal of a pattern that fails `check_wpoint`, in the library and the CLI.
WPOINT_REFUSAL = "pattern fails the zero-count/pair conditions, no rigid realization exists"


class LiftInfeasibleError(RuntimeError):
    """No positive weighting of B's columns admits a lift of the pair."""


@dataclass(frozen=True)
class RealizationSearchConfig:
    """Sampling range, budget and seed for the realization search."""

    entry_low: int = 1
    entry_high: int = 1000
    max_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        for name in ("entry_low", "entry_high", "max_samples"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {_shown(value)}")
        if not (0 < self.entry_low <= self.entry_high):
            raise ValueError("need 0 < entry_low <= entry_high")
        if self.max_samples < 0:
            raise ValueError("max_samples must be nonnegative")


def realize_pattern(
    pattern: ZeroPattern, config: RealizationSearchConfig
) -> FactorizationPair | None:
    """First sampled realization of the pattern that certifies rigid.

    Entries are drawn row-major, A before B, one integer per free position,
    from random.Random(seed).  The accept test of `is_infinitesimally_rigid`
    is planned once for the pattern by `accept_test`, whose precondition,
    entries nonzero exactly off the pattern's zeros, entry_low >= 1
    guarantees.  Each sample is put to the plan first; only a sample that
    passes it is asserted to pass `is_infinitesimally_rigid` too and built
    as a `FactorizationPair`, which ranks both factors.  A rejected or rank
    deficient sample counts against the budget and the search moves on.
    Returns None when max_samples is exhausted.
    """
    # This also refuses a pattern that forces a column of A or a row of B to
    # be zero: its zero mask contains every other one (r = 1 cannot hold it).
    if not check_wpoint(pattern):
        raise ValueError(WPOINT_REFUSAL)

    accepts = accept_test(pattern.zeros_a, pattern.zeros_b)
    rng = random.Random(config.seed)
    low, high = config.entry_low, config.entry_high
    for _ in range(config.max_samples):
        a_rows = [[0 if zero else rng.randint(low, high) for zero in row] for row in pattern.zeros_a]
        b_rows = [[0 if zero else rng.randint(low, high) for zero in row] for row in pattern.zeros_b]
        if not accepts(a_rows, b_rows):
            continue
        # The public test plans from the draw's own zeros: no precondition.
        assert is_infinitesimally_rigid(a_rows, b_rows)
        try:
            return FactorizationPair(RationalMatrix.from_rows(a_rows), RationalMatrix.from_rows(b_rows))
        except ValueError:  # A or B rank deficient
            continue
    return None


def extend_positive(pair: FactorizationPair, delta: Fraction) -> FactorizationPair:
    """Append r strictly positive rows to A and columns to B.

    Row i appended to A is the i-th unit row with delta elsewhere; column j
    appended to B is the j-th unit column plus delta everywhere.  No new
    zeros appear, so the dual-cone generators and the whole rigidity
    certificate are unchanged; the construction realizes the
    close-to-facet / close-to-vertex extension that pins down nearby
    factorizations globally for small enough delta (no effective bound on
    delta is asserted here).
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = pair.r
    one = Fraction(1)
    new_a_rows = [list(pair.a.row(i)) for i in range(pair.m)]
    for i in range(r):
        new_a_rows.append([one if j == i else delta for j in range(r)])
    new_b_rows = []
    for i in range(r):
        row = list(pair.b.row(i))
        row.extend(one + delta if j == i else delta for j in range(r))
        new_b_rows.append(row)
    return FactorizationPair(
        RationalMatrix.from_rows(new_a_rows), RationalMatrix.from_rows(new_b_rows)
    )


def lift_partially_rigid(pair: FactorizationPair) -> FactorizationPair:
    """Lift a rigid pair (A, B) to a partially rigid pair of inner size r+1.

    The relative-interior witness of the input provides the coefficient
    c[i, j] of each A-zero generator.  The appended column of A is solved
    exactly, in one LP, so that the witness aggregated over the new
    coordinate hits a strictly positive combination of B's columns whose
    weights are themselves unknowns.  Rows of A without zeros do not enter
    the solve and get entry 1.  B gains a zero row and then an all-ones
    column to restore full rank.

    Raises LiftInfeasibleError when no positive weighting of B's columns
    admits a lift, or when the solved column leaves A rank deficient
    (reported, never guessed), and ValueError when the input is not
    infinitesimally rigid.
    """
    cert = certify(pair, kruskal_budget=0)
    if cert.classification is not Classification.INFINITESIMALLY_RIGID:
        raise ValueError(
            f"lift needs an infinitesimally rigid input, got {cert.classification.value}"
        )
    r, m, n = pair.r, pair.m, pair.n
    gens = build_dual_generators(pair)
    witness = cert.relint_witness
    assert witness is not None

    # Aggregate the A-zero witness coefficients by row of A: u_row[i] is the
    # vector sum of c[i, j] * e_j over the zero slots j of row i.
    u_rows: dict[int, list[Fraction]] = {}
    for coeff, src in zip(witness, gens.sources):
        if src.factor == "A":
            u_rows.setdefault(src.row, [Fraction(0)] * r)[src.col] = coeff
    solve_rows = sorted(u_rows)

    # Columns: u_i per row of A that has zeros (x_i >= 1), minus the sum of
    # B's columns (t >= 1), then minus each column b_l (s_l >= 0).  Solving
    # sum_i x_i u_i = sum_l (t + s_l) b_l  reaches every weighting mu >= 1
    # at t = 1, s = mu - 1, and x >= 1 keeps the new column strictly
    # positive.  The leading columns alone are the plain column-sum system.
    b_cols = [pair.b.column(l) for l in range(n)]
    total = tuple(sum((col[i] for col in b_cols), Fraction(0)) for i in range(r))
    columns = [tuple(u_rows[i]) for i in solve_rows] + [tuple(-x for x in total)]
    columns += [tuple(-x for x in col) for col in b_cols]
    bounds = (Fraction(1),) * (len(solve_rows) + 1) + (Fraction(0),) * n
    solution = lp_feasible(RationalMatrix.from_columns(columns, r), (Fraction(0),) * r, bounds)
    if solution is None:
        raise LiftInfeasibleError("no positive weighting of B's columns admits a lift")
    new_col = {row: solution[k] for k, row in enumerate(solve_rows)}
    a_rows = [list(pair.a.row(i)) + [new_col.get(i, Fraction(1))] for i in range(m)]
    a_lifted = RationalMatrix.from_rows(a_rows)
    if rank(a_lifted) != r + 1:
        raise LiftInfeasibleError("lifted A is rank deficient")
    b_rows = [list(pair.b.row(i)) + [Fraction(1)] for i in range(r)]
    b_rows.append([Fraction(0)] * n + [Fraction(1)])
    return FactorizationPair(a_lifted, RationalMatrix.from_rows(b_rows))
