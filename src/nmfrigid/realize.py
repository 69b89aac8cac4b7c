"""Constructive side: random rigid realizations, positive extension, lift.

Realization search samples integer entries uniformly at the free positions
of a zero pattern and keeps the first sample whose exact certificate is
infinitesimally rigid; everything is driven by a seeded generator, so a
(pattern, config) pair always reproduces the same factorization.  The
positive extension appends rows and columns that add no zeros and hence
change nothing in the certificate.  The lift turns a rigid pair of inner
size r into a partially rigid pair of inner size r+1 by adding a positive
column to A (solved exactly from the relative-interior witness), a zero row
and a positive column to B.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cone import lp_feasible
from .exactlin import RationalMatrix, rank
from .patterns import ZeroPattern, check_wpoint
from .rigidity import (
    Classification,
    FactorizationPair,
    build_dual_generators,
    certify,
    is_infinitesimally_rigid,
)


class LiftInfeasibleError(RuntimeError):
    """The witness-driven column solve failed for every deterministic retry."""


@dataclass(frozen=True)
class RealizationSearchConfig:
    """Sampling range, budget and seed for the realization search."""

    entry_low: int = 1
    entry_high: int = 1000
    max_samples: int = 10000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.entry_low <= self.entry_high):
            raise ValueError("need 0 < entry_low <= entry_high")
        if self.max_samples < 0:
            raise ValueError("max_samples must be nonnegative")


def realize_pattern(
    pattern: ZeroPattern, config: RealizationSearchConfig
) -> FactorizationPair | None:
    """First sampled realization of the pattern that certifies rigid.

    Entries are drawn row-major, A before B, one integer per free position,
    from random.Random(seed); a sample that happens to be rank deficient
    counts against the budget and the search moves on.  Returns None when
    max_samples is exhausted.
    """
    r = pattern.r
    for j in range(r):
        if all(pattern.zeros_a[i][j] for i in range(pattern.m)):
            raise ValueError(f"pattern forces column {j} of A to be zero")
    for i in range(r):
        if all(pattern.zeros_b[i][l] for l in range(pattern.n)):
            raise ValueError(f"pattern forces row {i} of B to be zero")
    if not check_wpoint(pattern):
        raise ValueError("pattern fails the zero-count/pair conditions; no rigid realization exists")

    rng = random.Random(config.seed)
    zero = Fraction(0)
    for _ in range(config.max_samples):
        a_data = [
            zero if pattern.zeros_a[i][j] else Fraction(rng.randint(config.entry_low, config.entry_high))
            for i in range(pattern.m)
            for j in range(r)
        ]
        b_data = [
            zero if pattern.zeros_b[i][l] else Fraction(rng.randint(config.entry_low, config.entry_high))
            for i in range(r)
            for l in range(pattern.n)
        ]
        a = RationalMatrix(pattern.m, r, tuple(a_data))
        b = RationalMatrix(r, pattern.n, tuple(b_data))
        try:
            pair = FactorizationPair(a, b)  # ranks both factors
        except ValueError:
            continue
        if is_infinitesimally_rigid(pair):
            return pair
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


def _lift_weight_schedules(r: int, n: int) -> list[list[Fraction]]:
    # Attempt 0 is the plain column sum; later attempts cycle the weights
    # 1..r across the columns so each retry targets a different interior
    # point of the column cone.
    schedules = [[Fraction(1)] * n]
    for k in range(1, r + 1):
        schedules.append([Fraction(((l + k) % r) + 1) for l in range(n)])
    return schedules


def lift_partially_rigid(pair: FactorizationPair) -> FactorizationPair:
    """Lift a rigid pair (A, B) to a partially rigid pair of inner size r+1.

    The relative-interior witness of the input provides the coefficient
    c[i, j] of each A-zero generator.  The appended column of A is solved
    exactly so that the witness aggregated over the new coordinate hits a
    strictly positive combination w of B's columns; an extra scaling
    variable absorbs the free overall scale of w.  Rows of A without zeros
    do not enter the solve and get entry 1.  B gains a zero row and then an
    all-ones column to restore full rank.

    Raises LiftInfeasibleError when no deterministic weight choice for w
    yields a solvable system (reported, never guessed), and ValueError when
    the input is not infinitesimally rigid.
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
    for coeff, src in zip(witness.coefficients, gens.sources):
        if src.factor == "A":
            u_rows.setdefault(src.row, [Fraction(0)] * r)[src.col] = coeff
    solve_rows = sorted(u_rows)

    b_cols = [pair.b.column(l) for l in range(n)]
    last_error = "no attempt ran"
    for weights in _lift_weight_schedules(r, n):
        w = tuple(
            sum((weights[l] * b_cols[l][i] for l in range(n)), Fraction(0)) for i in range(r)
        )
        # Columns: one per row of A that has zeros, then -w with its own
        # scale t; solving  sum_i x_i u_i - t w = 0  with x, t >= 1 gives
        # strictly positive column entries for target t*w, still interior.
        columns = [tuple(u_rows[i]) for i in solve_rows] + [tuple(-x for x in w)]
        system = RationalMatrix.from_columns(columns, r)
        bounds = (Fraction(1),) * len(columns)
        solution = lp_feasible(system, (Fraction(0),) * r, bounds)
        if solution is None:
            last_error = "aggregated witness system infeasible for this weight choice"
            continue
        new_col = {row: solution[k] for k, row in enumerate(solve_rows)}
        a_rows = [
            list(pair.a.row(i)) + [new_col.get(i, Fraction(1))] for i in range(m)
        ]
        a_lifted = RationalMatrix.from_rows(a_rows)
        if rank(a_lifted) != r + 1:
            last_error = "lifted A is rank deficient for this weight choice"
            continue
        b_rows = [list(pair.b.row(i)) + [Fraction(1)] for i in range(r)]
        b_rows.append([Fraction(0)] * n + [Fraction(1)])
        b_lifted = RationalMatrix.from_rows(b_rows)
        return FactorizationPair(a_lifted, b_lifted)
    raise LiftInfeasibleError(last_error)
