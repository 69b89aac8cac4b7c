"""Zero-pattern combinatorics for factorizations (A, B).

A pattern records which entries of the two factors are forced to zero.  Two
patterns are considered the same when one maps to the other by permuting
rows of A, permuting columns of B, permuting the inner index (columns of A
together with rows of B), or, for square products, swapping the roles of
A and B via transposition.  This module provides the combinatorial
necessary-condition filters for infinitesimal rigidity, a canonical form
under that group, and exhaustive enumeration of orbit representatives with
a given zero count.

Bit tricks: a column of the A-pattern is held as an integer mask over the
row set, a row of the B-pattern as a mask over the column set.  Every test
and the whole enumeration run on these masks; booleans appear only at the
public boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

BoolMatrix = tuple[tuple[bool, ...], ...]


class PatternFilter(Enum):
    """Named necessary-condition filters for enumeration."""

    WPOINT = "wpoint"
    COLUMN_BOUND = "column-bound"
    ROW_COVERAGE_A = "row-coverage-a"
    COLUMN_COVERAGE_B = "column-coverage-b"
    POSITIVE_PRODUCT = "positive-product"
    ZERO_RECTANGLES = "zero-rectangles"


@dataclass(frozen=True)
class ZeroPattern:
    """Forced zeros of an m x r factor A and an r x n factor B.

    True marks a forced zero.  An all-true row of `zeros_a` or all-true
    column of `zeros_b` is rejected: it would force a zero row of A or zero
    column of B, which no valid factorization pair realizes.  An inner size
    r above min(m, n) is rejected too.
    """

    m: int
    n: int
    r: int
    zeros_a: BoolMatrix
    zeros_b: BoolMatrix

    def __post_init__(self):
        _require_attainable_rank(self.m, self.n, self.r)
        if len(self.zeros_a) != self.m or any(len(row) != self.r for row in self.zeros_a):
            raise ValueError(f"zeros_a must be {self.m}x{self.r}")
        if len(self.zeros_b) != self.r or any(len(row) != self.n for row in self.zeros_b):
            raise ValueError(f"zeros_b must be {self.r}x{self.n}")
        for i, row in enumerate(self.zeros_a):
            if self.r and all(row):
                raise ValueError(f"row {i} of the A-pattern is entirely zero")
        for l in range(self.n):
            if self.r and all(self.zeros_b[i][l] for i in range(self.r)):
                raise ValueError(f"column {l} of the B-pattern is entirely zero")

    @property
    def zero_count(self) -> int:
        return sum(x for row in self.zeros_a for x in row) + sum(
            x for row in self.zeros_b for x in row
        )

    def cols_a_masks(self) -> tuple[int, ...]:
        """Column j of the A-pattern as a bit mask over rows."""
        return _col_masks(self.zeros_a, self.r)

    def rows_b_masks(self) -> tuple[int, ...]:
        """Row i of the B-pattern as a bit mask over columns."""
        return _row_masks(self.zeros_b)


def _row_masks(zeros) -> tuple[int, ...]:
    # Row i of a boolean zero matrix as a bit mask, bit j for column j.
    return tuple(sum(1 << j for j, z in enumerate(row) if z) for row in zeros)


def _col_masks(zeros, cols: int) -> tuple[int, ...]:
    # Column j of a boolean zero matrix with `cols` columns as a bit mask,
    # bit i for row i.
    return tuple(sum(1 << i for i, row in enumerate(zeros) if row[j]) for j in range(cols))


def _decode_rows(rows: tuple[int, ...], width: int) -> BoolMatrix:
    # Inverse of the key encodings: each int is one row, column 0 as the
    # most significant of `width` bits.
    return tuple(tuple(bool((v >> (width - 1 - j)) & 1) for j in range(width)) for v in rows)


def _require_attainable_rank(m: int, n: int, r: int) -> None:
    # A full-rank m x r factor needs r <= m and an r x n one needs r <= n.
    if r > min(m, n):
        raise ValueError(
            f"inner rank {r} exceeds min(m, n) = {min(m, n)}: "
            "no full-rank factorization has that inner size"
        )


def pattern_of_factorization(a_rows: list, b_rows: list) -> ZeroPattern:
    """Zero pattern of explicit factor matrices given as row lists."""
    m, r, n = len(a_rows), len(b_rows), len(b_rows[0]) if b_rows else 0
    zeros_a = tuple(tuple(x == 0 for x in row) for row in a_rows)
    zeros_b = tuple(tuple(x == 0 for x in row) for row in b_rows)
    return ZeroPattern(m, n, r, zeros_a, zeros_b)


@dataclass(frozen=True)
class PatternGroupElement:
    """One symmetry of the pattern group.

    Acts by optionally swapping (zeros_a, zeros_b) -> (zeros_b^T, zeros_a^T)
    first, then permuting rows of the A-pattern, columns of the B-pattern
    and the inner index simultaneously on both factors.
    """

    row_perm_a: tuple[int, ...]
    col_perm_b: tuple[int, ...]
    inner_perm: tuple[int, ...]
    transposed: bool = False

    def apply(self, pattern: ZeroPattern) -> ZeroPattern:
        za, zb = pattern.zeros_a, pattern.zeros_b
        m, n, r = pattern.m, pattern.n, pattern.r
        if self.transposed:
            za, zb = (
                tuple(tuple(zb[j][i] for j in range(r)) for i in range(n)),
                tuple(tuple(za[j][i] for j in range(m)) for i in range(r)),
            )
            m, n = n, m
        new_a = tuple(
            tuple(za[self.row_perm_a[i]][self.inner_perm[j]] for j in range(r))
            for i in range(m)
        )
        new_b = tuple(
            tuple(zb[self.inner_perm[i]][self.col_perm_b[l]] for l in range(n))
            for i in range(r)
        )
        return ZeroPattern(m, n, r, new_a, new_b)


# ---------------------------------------------------------------------------
# Necessary-condition checks
# ---------------------------------------------------------------------------

def _pairwise_separating(masks: tuple[int, ...]) -> bool:
    # For every ordered pair i != j some ground element lies in masks[i]
    # but not masks[j]; equivalently no containment between distinct slots.
    r = len(masks)
    for i in range(r):
        for j in range(r):
            if i != j and masks[i] & ~masks[j] == 0:
                return False
    return True


def check_wpoint(pattern: ZeroPattern) -> bool:
    """Zero count at least r^2-r+1 and both factors boundary closed.

    Boundary closed means: for every ordered inner pair (i, j) some row of A
    is zero at i but not at j, and some column of B is zero at i but not at
    j.  In mask terms both sides must be pairwise non-contained.
    """
    r = pattern.r
    if pattern.zero_count < r * r - r + 1:
        return False
    return _pairwise_separating(pattern.cols_a_masks()) and _pairwise_separating(
        pattern.rows_b_masks()
    )


def forces_product_zero(pattern: ZeroPattern) -> bool:
    """True when some product entry is identically zero under the pattern.

    Entry (i, l) of AB vanishes for every realization exactly when the zero
    support of row i of A and the zero support of column l of B together
    cover all r inner indices.  A rigid factorization with the tight zero
    count has a strictly positive product, so such patterns admit no rigid
    realization.
    """
    row_masks_a = _row_masks(pattern.zeros_a)
    col_masks_b = _col_masks(pattern.zeros_b, pattern.n)
    full = (1 << pattern.r) - 1
    return any(sa | tb == full for sa in row_masks_a for tb in col_masks_b)


def _require_tight_count(pattern: ZeroPattern) -> None:
    r = pattern.r
    expected = r * r - r + 1
    if pattern.zero_count != expected:
        raise ValueError(
            f"check applies only at exactly {expected} zeros, pattern has {pattern.zero_count}"
        )


def check_column_bound(pattern: ZeroPattern) -> bool:
    """Every column of A and row of B has <= r-1 zeros: necessary for
    rigidity at the tight count r^2-r+1, a plain filter at any other."""
    bound = pattern.r - 1
    if any(mask.bit_count() > bound for mask in pattern.cols_a_masks()):
        return False
    return all(mask.bit_count() <= bound for mask in pattern.rows_b_masks())


@dataclass(frozen=True)
class RectangleViolation:
    """A pair of zero blocks too large to coexist in a rigid pattern.

    `alpha` and `beta` are 0-based inner index tuples; `k` rows of the
    A-pattern are zero on all of alpha and `l` columns of the B-pattern are
    zero on all of beta.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    k: int
    l: int


def check_zero_rectangles(pattern: ZeroPattern) -> RectangleViolation | None:
    """Search all inner subsets alpha, beta for an oversized zero rectangle.

    At a tight zero count the generators carried by a k x |alpha| zero block
    of A and a |beta| x l zero block of B must fit inside their common
    support, which bounds
    k|alpha| + l|beta| <= (r-|alpha|)|alpha| + (r-|beta|)|beta| - |alpha-beta||beta-alpha|.
    Returns the first violation in increasing (alpha, beta) mask order, or
    None if the pattern passes.
    """
    _require_tight_count(pattern)
    return rectangle_violation_from_masks(
        pattern.r, _row_masks(pattern.zeros_a), _col_masks(pattern.zeros_b, pattern.n)
    )


def rectangle_violation_from_masks(
    r: int, row_masks_a: tuple[int, ...], col_masks_b: tuple[int, ...]
) -> RectangleViolation | None:
    """Rectangle search on raw zero supports (rows of A, columns of B)."""
    for alpha in range(1 << r):
        size_a = alpha.bit_count()
        k = sum(1 for mask in row_masks_a if mask & alpha == alpha)
        for beta in range(1 << r):
            size_b = beta.bit_count()
            l = sum(1 for mask in col_masks_b if mask & beta == beta)
            bound = (
                (r - size_a) * size_a
                + (r - size_b) * size_b
                - (alpha & ~beta).bit_count() * (beta & ~alpha).bit_count()
            )
            if k * size_a + l * size_b > bound:
                return RectangleViolation(
                    alpha=tuple(j for j in range(r) if (alpha >> j) & 1),
                    beta=tuple(j for j in range(r) if (beta >> j) & 1),
                    k=k,
                    l=l,
                )
    return None


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perms(r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(r)))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[j] for j in q)


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for j, pj in enumerate(p):
        inv[pj] = j
    return tuple(inv)


def _spread(masks: tuple[int, ...], width: int) -> list[int]:
    # Each mask with its bit i moved to bit i * width, so that `width` spread
    # masks shifted by distinct amounts below `width` never share a bit.
    out = []
    for mask in masks:
        spread = 0
        while mask:
            low = mask & -mask
            spread |= 1 << (low.bit_length() - 1) * width
            mask ^= low
        out.append(spread)
    return out


def _enc_a(spreads: list[int], perm: tuple[int, ...], ground: int, r: int) -> list[int]:
    # Rows of the A-pattern after applying `perm` to the inner index, each
    # an r-bit code with inner slot 0 as the most significant bit, sorted
    # ascending (= the optimal row permutation).  `spreads` holds the side's
    # slot masks spread to width r: r shift-ors then lay every row code out
    # in its own r-bit field.
    word = 0
    for j in perm:
        word = (word << 1) | spreads[j]
    field = (1 << r) - 1
    return sorted((word >> shift) & field for shift in range(0, ground * r, r))


def _enc_b(spreads: list[int], order: tuple[int, ...], n: int, r: int) -> tuple[int, ...]:
    # The columns of the permuted B-pattern (read top to bottom) are the
    # rows `_enc_a` builds from the spread rows of B, sorted; their
    # row-major reading is the transpose.  Sorting columns minimizes that
    # reading over all column permutations.
    cols = _enc_a(spreads, order, n, r)
    out = []
    for shift in range(r - 1, -1, -1):
        w = 0
        for cv in cols:
            w = (w << 1) | ((cv >> shift) & 1)
        out.append(w)
    return tuple(out)


class _Readings(dict):
    # A side's reading table: its `_enc_b` reading under each inner
    # permutation, encoded on the first lookup and kept for every later pair.

    def __init__(self, masks: tuple[int, ...], ground: int, r: int):
        self.spreads, self.ground, self.r = _spread(masks, r), ground, r

    def __missing__(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        self[perm] = reading = _enc_b(self.spreads, perm, self.ground, self.r)
        return reading


def _pair_key(
    m: int, n: int, r: int, side_a: tuple, side_b: tuple, pi: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Canonical key of the pair whose B slot j is slot pi[j] of side_b, each
    # side given as (reading table, side key, argmin inner permutations of
    # `_side_key`).  The A side is minimized first, so only its argmins can
    # order the B side: B is read under _compose(pi, s) for each argmin s.
    # For m = n the transposed pair, A read under _compose(inv(pi), s) for
    # each argmin s of B, competes too.
    a_read, a_key, a_mins = side_a
    b_read, b_key, b_mins = side_b
    key = (a_key, min(b_read[_compose(pi, s)] for s in a_mins))
    if m == n:
        inv = _invert(pi)
        key = min(key, (b_key, min(a_read[_compose(inv, s)] for s in b_mins)))
    return key


def _pattern_from_key(
    m: int, n: int, r: int, key: tuple[tuple[int, ...], tuple[int, ...]]
) -> ZeroPattern:
    enc_a, enc_b = key
    return ZeroPattern(m, n, r, _decode_rows(enc_a, r), _decode_rows(enc_b, n))


def canonical_form(pattern: ZeroPattern) -> ZeroPattern:
    """Lexicographically least pattern in the symmetry orbit.

    The encoding compared is the row-major bits of the A-pattern followed by
    the row-major bits of the B-pattern; the minimum is taken over all inner
    permutations, the optimal row sort of A, the optimal column sort of B,
    and (for m = n) the transposition swap: the pair key of enumeration at
    the identity alignment.  Idempotent by construction.
    """
    m, n, r = pattern.m, pattern.n, pattern.r
    cols_a, rows_b = pattern.cols_a_masks(), pattern.rows_b_masks()
    side_a = (_Readings(cols_a, m, r), *_side_key(cols_a, m, r))
    side_b = (_Readings(rows_b, n, r), *_side_key(rows_b, n, r))
    return _pattern_from_key(m, n, r, _pair_key(m, n, r, side_a, side_b, _perms(r)[0]))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def _side_key(
    masks: tuple[int, ...], ground: int, r: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # Canonical encoding of one side under ground relabeling x inner
    # permutations, together with every inner permutation achieving it.
    spreads = _spread(masks, r)
    best = None
    argmins: list[tuple[int, ...]] = []
    for perm in _perms(r):
        enc = _enc_a(spreads, perm, ground, r)
        if best is None or enc < best:
            best = enc
            argmins = [perm]
        elif enc == best:
            argmins.append(perm)
    return tuple(best), tuple(argmins)


def _side_classes(
    ground: int,
    r: int,
    cap: int,
    incomparable: bool,
    cover: bool,
    z_min: int,
    z_max: int,
) -> dict[int, list[tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]]]:
    """Orbit representatives of one side's support multiset, bucketed by zero count.

    A side is an r-tuple of ground subsets (columns of the A-pattern or rows
    of the B-pattern).  With `incomparable` set, slots must be pairwise
    non-contained (the boundary-closed consequence), which also rules out
    duplicates and empties for r >= 2.  The all-ground intersection is
    always rejected: it would be an all-zero row of A or column of B.

    Slots are picked in (popcount, value) order, so the first tuple of an
    orbit the search reaches is its least sorted member.  Every condition
    above (the zero-count window, `incomparable`, `cover`, the empty
    intersection) is invariant under relabeling the ground set, so that
    member's least slot is {0, ..., k-1}, and each later slot takes the
    lowest elements of every cell of the partition the earlier slots cut
    the ground into (relabeling inside the cells fixes the earlier slots).
    Only such tuples are generated, so every bucket holds the same
    representatives, in the same order, as the search without this pruning.
    """
    full = (1 << ground) - 1
    # A slot above z_max zeros is cut by the popcount break below before it
    # is used, so the table holds only the masks of at most min(cap, z_max).
    masks = [
        mask
        for k in range(min(cap, z_max) + 1)
        for mask in sorted(sum(1 << e for e in c) for c in itertools.combinations(range(ground), k))
    ]
    counts = [m.bit_count() for m in masks]
    out: dict[int, list] = {}
    seen: dict[int, set] = {}
    chosen: list[int] = []

    # Each pick keeps total + pc <= z_max and total + pc + (remaining - 1) * cap
    # >= z_min, so with r >= 1 (both callers require it) every full tuple's
    # zero count already lies in [z_min, z_max].
    #
    # The cells of the chosen slots' partition are runs of consecutive
    # elements, bit e of `starts` marking the first of a run, so a candidate
    # that holds a non-first e without e - 1 is no least member.  At depth 0
    # the one run is the whole ground: the least slot is (1 << k) - 1.
    def rec(start: int, total: int, acc_and: int, acc_or: int, starts: int) -> None:
        remaining = r - len(chosen)
        if not remaining:
            if acc_and or (cover and acc_or != full):
                return
            tup = tuple(chosen)
            key, mins = _side_key(tup, ground, r)
            bucket = seen.setdefault(total, set())
            if key not in bucket:
                bucket.add(key)
                out.setdefault(total, []).append((tup, key, mins))
            return
        for idx in range(start, len(masks)):
            pc = counts[idx]
            if total + remaining * pc > z_max:
                break  # masks are sorted by popcount, no later index fits
            if total + pc + (remaining - 1) * cap < z_min:
                continue
            cand = masks[idx]
            if (cand & ~starts) >> 1 & ~cand:
                continue
            if incomparable and any(prev & ~cand == 0 or cand & ~prev == 0 for prev in chosen):
                continue
            chosen.append(cand)
            # cand splits each run it enters after its last element there.
            split = starts | (cand << 1) & ~cand & full
            rec(idx, total + pc, acc_and & cand, acc_or | cand, split)
            chosen.pop()

    rec(0, 0, full, 0, 1)
    return out


def enumerate_patterns(m: int, n: int, r: int, zeros: int, filters) -> list[ZeroPattern]:
    """All canonical orbit representatives with the requested zero count.

    Columns of the A-pattern and rows of the B-pattern are chosen as ground
    subsets with the pairwise non-containment and per-slot bounds pruned in
    during generation; the two sides are bucketed by zero count and reduced
    to per-side orbit representatives.  Each A side meets each B side in
    every inner alignment, and the pair key there is looked up in the two
    sides' reading tables (a side's B reading under each inner permutation,
    encoded once per side, never per pair).  The keys are deduplicated and
    decoded in sorted order, exactly as `canonical_form` decodes its one.
    The cheap POSITIVE_PRODUCT test and the expensive zero rectangle filter
    run last, on representatives only (both are invariant under the full
    group); the rectangle bound holds only at r*r - r + 1 zeros, so any
    other count with that filter raises ValueError before any work.

    Coverage filters are literal: ROW_COVERAGE_A means every row of A
    contains a zero, COLUMN_COVERAGE_B means every column of B contains a
    zero, each checked in the generated orientation.  For square shapes a
    pattern is kept when any orientation of its orbit passes, since the
    canonical form identifies the two orientations.
    """
    fset = frozenset(f if isinstance(f, PatternFilter) else PatternFilter(f) for f in filters)
    wpoint = PatternFilter.WPOINT in fset
    if zeros < 0:
        raise ValueError("zero count must be nonnegative")
    if m < 1 or n < 1 or r < 1:
        raise ValueError("dimensions must be positive")
    _require_attainable_rank(m, n, r)
    tight = r * r - r + 1
    if PatternFilter.ZERO_RECTANGLES in fset and zeros != tight:
        raise ValueError(f"zero-rectangles applies only at exactly {tight} zeros, not {zeros}")
    if wpoint and zeros < tight:
        return []

    colbound = PatternFilter.COLUMN_BOUND in fset
    cap_a = min(m, r - 1 if colbound else m)
    cap_b = min(n, r - 1 if colbound else n)
    cover_a = PatternFilter.ROW_COVERAGE_A in fset
    cover_b = PatternFilter.COLUMN_COVERAGE_B in fset

    side_floor = r if (wpoint and r >= 2) else 0
    a_min = max(side_floor, m if cover_a else 0)
    b_min = max(side_floor, n if cover_b else 0)
    a_sides = _side_classes(m, r, cap_a, wpoint, cover_a, a_min, zeros - b_min)
    b_sides = _side_classes(n, r, cap_b, wpoint, cover_b, b_min, zeros - a_min)

    perms = _perms(r)
    found: dict = {}
    for z_a, a_list in sorted(a_sides.items()):
        b_list = b_sides.get(zeros - z_a)
        if not b_list:
            continue
        b_read_sides = [(_Readings(masks, n, r), key, mins) for masks, key, mins in b_list]
        for a_masks, a_key, a_mins in a_list:
            side_a = (_Readings(a_masks, m, r), a_key, a_mins)
            for side_b in b_read_sides:
                for pi in perms:
                    found.setdefault(_pair_key(m, n, r, side_a, side_b, pi))
    reps = [_pattern_from_key(m, n, r, key) for key in sorted(found)]
    if PatternFilter.POSITIVE_PRODUCT in fset:
        reps = [p for p in reps if not forces_product_zero(p)]
    if PatternFilter.ZERO_RECTANGLES in fset:
        reps = [p for p in reps if check_zero_rectangles(p) is None]
    return reps


def table1_filters(m: int, n: int) -> frozenset[PatternFilter]:
    """Filter set reproducing the published shape-by-shape pattern counts.

    All shapes use the zero-count/pair conditions, the per-column bound, the
    positive-product exclusion and row coverage of A.  Column coverage of B
    engages exactly where the published enumeration applied it: whenever B
    was run with six columns, which includes the 6x5 product, evidently
    enumerated in its transposed 5x6 orientation.  The n = 5 runs had no
    B-coverage condition, and indeed some of their published counterparts
    (9x5 among them) contain patterns with a zero-free column of B.
    """
    base = {
        PatternFilter.WPOINT,
        PatternFilter.COLUMN_BOUND,
        PatternFilter.ROW_COVERAGE_A,
        PatternFilter.POSITIVE_PRODUCT,
    }
    if n == 6 or (m, n) == (6, 5):
        base.add(PatternFilter.COLUMN_COVERAGE_B)
    return frozenset(base)
