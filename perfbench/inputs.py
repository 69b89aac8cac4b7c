"""Seeded benchmark inputs built from the bundled fixtures.

Every input is a pure function of (seed, workload, index): the same seed
always yields the same files, whatever the machine and however many
operations a run gets through.  The transforms below are symmetries of the
rigidity problem, so the verdict of each generated input is known by
construction and does not have to be recomputed by the program under test:

* row permutations of A, column permutations of B and a simultaneous
  permutation of the inner index;
* transposition, (A, B) -> (B^T, A^T), for the square 5x5 products;
* positive diagonal scalings D_row A D_in and D_in^-1 B D_col, which leave
  the zero pattern, the generator cone up to a linear isomorphism, and hence
  every dimension and the Kruskal rank unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from nmfrigid.fixtures import RIGID_5X5

Rows = list[list[Fraction]]

# Scale factors: half of them 1, the rest small integers and simple
# fractions, so a transformed pair mixes integer and rational entries.
_SCALES = (Fraction(1),) * 6 + tuple(
    Fraction(p, q) for p, q in ((2, 1), (3, 1), (1, 2), (1, 3), (2, 3), (3, 2))
)

# Fixture 09 has a known lift failure (LiftInfeasibleError, exit 1); the
# first round of every lift run lifts it, so the failure stays in the data.
LIFT_FAILURE_FIXTURE = 8

# `nmfr cp-check` verdicts of A and B^T of each fixture as symmetric
# factors: (classification, generator count, Kruskal rank).  Row
# permutations, column permutations and positive row scalings keep all
# three, so they hold for every transformed CP input as well.
CP_EXPECTED = (
    (("infinitesimally-rigid", 9, 5), ("not-rigid", 4, 4)),
    (("infinitesimally-rigid", 9, 3), ("not-rigid", 4, 4)),
    (("infinitesimally-rigid", 9, 3), ("not-rigid", 4, 4)),
    (("not-rigid", 8, 5), ("not-rigid", 5, 5)),
    (("not-rigid", 8, 5), ("not-rigid", 5, 5)),
    (("not-rigid", 8, 5), ("not-rigid", 5, 5)),
    (("infinitesimally-rigid", 8, 5), ("not-rigid", 5, 5)),
    (("not-rigid", 8, 5), ("not-rigid", 5, 5)),
    (("infinitesimally-rigid", 8, 3), ("not-rigid", 5, 5)),
    (("infinitesimally-rigid", 8, 3), ("not-rigid", 5, 5)),
    (("infinitesimally-rigid", 8, 3), ("not-rigid", 5, 5)),
    (("not-rigid", 7, 6), ("not-rigid", 6, 6)),
    (("not-rigid", 7, 6), ("not-rigid", 6, 6)),
    (("infinitesimally-rigid", 7, 6), ("not-rigid", 6, 6)),
    (("not-rigid", 7, 6), ("not-rigid", 6, 6)),
)

# Table-1 shapes at rank 4 and 13 zeros with their published counts.
ENUMERATE_SHAPES = (
    ((5, 5), 15),
    ((6, 5), 26),
    ((6, 6), 14),
    ((7, 5), 24),
    ((7, 6), 11),
    ((8, 5), 10),
    ((9, 5), 2),
)


def rng_for(seed: int, workload: str, index: int) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{workload}:{index}")


def fixture_order(seed: int, workload: str, exclude: tuple[int, ...] = ()) -> list[int]:
    """Seeded permutation of the fixture indices, minus `exclude`."""
    order = [i for i in range(len(RIGID_5X5)) if i not in exclude]
    random.Random(f"{seed}:{workload}:order").shuffle(order)
    return order


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


@dataclass(frozen=True)
class PairInput:
    fixture: int
    a: Rows
    b: Rows
    note: str


def plain_pair(index: int) -> PairInput:
    """Fixture `index` as shipped."""
    fx = RIGID_5X5[index]
    to_rows = lambda rows: [[Fraction(x) for x in row] for row in rows]  # noqa: E731
    return PairInput(index, to_rows(fx.a), to_rows(fx.b), fx.name)


def transformed_pair(
    index: int, rng: random.Random, for_lift: bool = False
) -> PairInput:
    """A seeded symmetry image of fixture `index` (verdict unchanged).

    `for_lift` keeps only the symmetries under which the lift's first
    (all-ones) weight attempt is equivariant: no transposition and no column
    scaling of B, both of which change the aggregated witness system and
    can turn a feasible lift infeasible or the other way round.
    """
    plain = plain_pair(index)
    a, b = plain.a, plain.b
    transposed = not for_lift and rng.random() < 0.5
    if transposed:
        a, b = [list(col) for col in zip(*b)], [list(col) for col in zip(*a)]
    m, r, n = len(a), len(b), len(b[0])
    pr, pi, pc = _perm(rng, m), _perm(rng, r), _perm(rng, n)
    a = [[a[pr[i]][pi[j]] for j in range(r)] for i in range(m)]
    b = [[b[pi[i]][pc[j]] for j in range(n)] for i in range(r)]
    d_row = [rng.choice(_SCALES) for _ in range(m)]
    d_in = [rng.choice(_SCALES) for _ in range(r)]
    d_col = [Fraction(1) if for_lift else rng.choice(_SCALES) for _ in range(n)]
    a = [[a[i][j] * d_row[i] * d_in[j] for j in range(r)] for i in range(m)]
    b = [[b[i][j] / d_in[i] * d_col[j] for j in range(n)] for i in range(r)]
    return PairInput(index, a, b, plain.note + (" T" if transposed else ""))


def filled_pair(pair: PairInput, rng: random.Random) -> PairInput:
    """Fill one zero with a positive entry: 12 zeros can never be rigid.

    Filling a zero of a full-rank factor with a positive value can only lose
    rank on a measure-zero set of values; the value is redrawn until both
    factors keep rank r.
    """
    a = [row[:] for row in pair.a]
    b = [row[:] for row in pair.b]
    zeros = [("A", i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x == 0]
    zeros += [("B", i, j) for i, row in enumerate(b) for j, x in enumerate(row) if x == 0]
    side, i, j = rng.choice(zeros)
    target = a if side == "A" else b
    r = len(b)
    while True:
        target[i][j] = Fraction(rng.randint(1, 1000), rng.choice((1, 1, 2, 3)))
        if exact_rank(a) == r and exact_rank(b) == r:
            break
    return PairInput(pair.fixture, a, b, f"{pair.note} fill {side}[{i},{j}]")


@dataclass(frozen=True)
class SymmetricInput:
    fixture: int
    side: int  # 0: A, 1: B^T
    a: Rows
    note: str


def transformed_symmetric(index: int, side: int, rng: random.Random) -> SymmetricInput:
    """A or B^T of a fixture under row/column permutations and row scalings."""
    fx = RIGID_5X5[index]
    rows = [[Fraction(x) for x in row] for row in fx.a] if side == 0 else [
        [Fraction(x) for x in col] for col in zip(*fx.b)
    ]
    n, r = len(rows), len(rows[0])
    pr, pc = _perm(rng, n), _perm(rng, r)
    d_row = [rng.choice(_SCALES) for _ in range(n)]
    a = [[rows[pr[i]][pc[j]] * d_row[i] for j in range(r)] for i in range(n)]
    return SymmetricInput(index, side, a, f"{fx.name} {'A' if side == 0 else 'B^T'}")


# The 15 canonical representatives that `nmfr enumerate --shape 5 5 --rank 4
# --zeros 13` writes, A-pattern rows / B-pattern rows ('0' a forced zero).
# Each is the orbit of exactly one fixture's zero pattern.
TABLE1_5X5 = (
    ".... ...0 ..0. .0.. 0... / ....0 ..00. 00.0. 000..",
    ".... ...0 ..0. .0.. 0... / ...00 ..0.0 .0.0. 000..",
    ".... ...0 ..0. .0.. 0... / ...00 ..0.0 .000. 00...",
    ".... ...0 .00. 0.0. 00.. / ....0 ..00. .0.0. 0....",
    ".... ..00 .0.0 0.0. 00.. / ....0 ...0. ..0.. 00...",
    "...0 ...0 ..0. .0.. 0... / ....0 ..00. .0.0. 000..",
    "...0 ...0 ..0. .0.. 0... / ....0 ..00. 00.0. .00..",
    "...0 ...0 ..0. .0.. 0... / ...00 ..0.0 ..00. 00...",
    "...0 ...0 ..0. .0.. 0... / ...00 ..0.0 .0.0. 0.0..",
    "...0 ...0 ..0. .0.. 0... / ...00 ..0.0 .000. 0....",
    "...0 ...0 ..0. .0.. 0... / ...00 ..0.0 00... ..00.",
    "...0 ...0 ..0. .0.. 0... / ...00 ..0.0 00... .0.0.",
    "...0 ..0. ..00 .0.. 0... / ....0 ..00. .0.0. 0.0..",
    "...0 ..0. ..00 .0.. 0... / ....0 ..00. .0.0. 00...",
    "...0 ..0. ..00 .0.. 0... / ...00 .00.. ..0.0 0....",
)


@dataclass(frozen=True)
class PatternInput:
    index: int  # into TABLE1_5X5
    m: int
    n: int
    r: int
    zeros_a: tuple[tuple[bool, ...], ...]
    zeros_b: tuple[tuple[bool, ...], ...]
    search_seed: int
    note: str


def table1_pattern(index: int, search_seed: int) -> PatternInput:
    """Table-1 representative `index` as `nmfr enumerate` writes it, with a search seed.

    No symmetry is applied: a permuted or transposed pattern is the same
    search problem, but it reorders the generators and with them the LP's
    pivot path, which moves the per-sample cost by about 20 % either way.
    With some 30 searches in a run that alone would move the realize
    figure by several percent from seed to seed, so the seed varies the
    searches' sample streams instead.
    """
    a_rows, b_rows = (part.split() for part in TABLE1_5X5[index].split(" / "))
    zeros_a = tuple(tuple(ch == "0" for ch in row) for row in a_rows)
    zeros_b = tuple(tuple(ch == "0" for ch in row) for row in b_rows)
    m, r, n = len(zeros_a), len(zeros_b), len(zeros_b[0])
    return PatternInput(index, m, n, r, zeros_a, zeros_b, search_seed, f"table1-5x5-{index + 1:02d} seed {search_seed}")


def exact_rank(rows: Rows) -> int:
    """Rank over the rationals, in the benchmark's own code."""
    work = [row[:] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            if f:
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def matrix_text(rows: Rows) -> str:
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def pair_text(a: Rows, b: Rows) -> str:
    return matrix_text(a) + "\n" + matrix_text(b)


def pattern_text(p: PatternInput) -> str:
    lines = [f"{p.m} {p.n} {p.r}"]
    lines += ["".join("0" if z else "." for z in row) for row in p.zeros_a]
    lines.append("")
    lines += ["".join("0" if z else "." for z in row) for row in p.zeros_b]
    return "\n".join(lines) + "\n"
