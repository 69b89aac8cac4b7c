"""Zero-pattern combinatorics for factorizations (A, B).

A pattern records which entries of the two factors are forced to zero.  Two
patterns are considered the same when one maps to the other by permuting
rows of A, permuting columns of B, permuting the inner index (columns of A
together with rows of B), or, for square products, swapping the roles of
A and B via transposition.  This module provides the combinatorial
necessary conditions for infinitesimal rigidity, a canonical form under
that group, and exhaustive enumeration of orbit representatives with a
given zero count.

Bit tricks: the zeros of a pair are one `ZeroSupport`, the rows and
columns of A and of B each held as integer masks; a symmetric factor
A A^T is a support with no B side.  One table of named predicates over
that support holds every necessary condition: the `check_*` filters and
the reports of `rigidity` and `cpr` all read it, and the positivity of the
product is read from the masks, never computed.  The enumeration runs on
the same masks; booleans appear only at the public boundary.
"""

from __future__ import annotations

import itertools
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from operator import itemgetter

from .exactlin import _shown

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

    @cached_property
    def support(self) -> ZeroSupport:
        return ZeroSupport.of(self.r, self.zeros_a, self.zeros_b)

    @property
    def zero_count(self) -> int:
        return self.support.zero_count


def _decode_rows(rows: tuple[int, ...], width: int) -> BoolMatrix:
    # Inverse of the key encodings: each int is one row, column 0 as the
    # most significant of `width` bits.  A leading 1 above the row keeps its
    # leading zeros in the binary digits, which are read after "0b1".
    top = 1 << width
    return tuple(tuple(map("1".__eq__, bin(v | top)[3:])) for v in rows)


def _require_attainable_rank(m: int, n: int, r: int) -> None:
    # A full-rank m x r factor needs r <= m and an r x n one needs r <= n.
    if r > min(m, n):
        raise ValueError(
            f"inner rank {_shown(r)} exceeds min(m, n) = {_shown(min(m, n))}: "
            "no full-rank factorization has that inner size"
        )


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
# Necessary conditions
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


@dataclass(frozen=True)
class ZeroSupport:
    """The zeros of A (m x r) and B (r x n) as bit masks.

    `rows_a[i]` has bit j set for a zero at A[i, j] and `cols_a[j]` bit i;
    `rows_b[j]` has bit l set for a zero at B[j, l] and `cols_b[l]` bit j.
    A symmetric factor A of M = A A^T is a support with an empty B side.
    Any zeros are accepted, all-zero rows of A and columns of B included.
    """

    r: int
    rows_a: tuple[int, ...]
    cols_a: tuple[int, ...]
    rows_b: tuple[int, ...] = ()
    cols_b: tuple[int, ...] = ()

    @classmethod
    def of(cls, r: int, zeros_a, zeros_b=()) -> ZeroSupport:
        """Support of boolean zero matrices, True marking a zero."""
        bits = [1 << j for j in range(max(r, len(zeros_a), len(zeros_b[0]) if zeros_b else 0))]

        def mask(line) -> int:  # bit j for a zero at position j
            return sum(itertools.compress(bits, line))

        lines = (zeros_a, zip(*zeros_a), zeros_b, zip(*zeros_b))
        return cls(r, *(tuple(map(mask, side)) for side in lines))

    @property
    def zero_count(self) -> int:
        return sum(mask.bit_count() for mask in self.cols_a + self.rows_b)

    @property
    def tight_count(self) -> int:
        # One zero more than the motion space has dimensions: r^2 - r for a
        # pair, r(r-1)/2 for a symmetric factor.
        r = self.r
        return (r * r - r if self.cols_b else r * (r - 1) // 2) + 1

    @cached_property
    def rectangle(self) -> RectangleViolation | None:
        """First oversized zero rectangle pair in increasing (alpha, beta)
        mask order, or None.

        At a tight zero count the generators carried by a k x |alpha| zero
        block of A and a |beta| x l zero block of B must fit inside their
        common support, which bounds
        k|alpha| + l|beta| <= (r-|alpha|)|alpha| + (r-|beta|)|beta| - |alpha-beta||beta-alpha|.
        With no B side l is 0, so this fires exactly when k > r - |alpha|,
        at the first such alpha and with beta empty.
        """
        r = self.r
        for alpha in range(1 << r):
            size_a = alpha.bit_count()
            k = sum(1 for mask in self.rows_a if mask & alpha == alpha)
            for beta in range(1 << r):
                size_b = beta.bit_count()
                l = sum(1 for mask in self.cols_b if mask & beta == beta)
                bound = (
                    (r - size_a) * size_a
                    + (r - size_b) * size_b
                    - (alpha & ~beta).bit_count() * (beta & ~alpha).bit_count()
                )
                if k * size_a + l * size_b > bound:
                    members = [tuple(j for j in range(r) if x >> j & 1) for x in (alpha, beta)]
                    return RectangleViolation(*members, k, l)
        return None


# The combinatorial necessary conditions for rigidity, by name, each read
# off a support alone.  Boundary closed means that for every ordered inner
# pair (i, j) some row of A (column of B) is zero at i but not at j, that
# is, the side's masks are pairwise non-contained.  For nonnegative factors
# an entry of AB (of A A^T when there is no B side) vanishes exactly when
# the zeros of its row and its column together cover all r inner indices.
_PREDICATES: dict[str, Callable[[ZeroSupport], bool]] = {
    "enough-zeros": lambda s: s.zero_count >= s.tight_count,
    "tight": lambda s: s.zero_count == s.tight_count,
    "r>=3": lambda s: s.r >= 3,
    "closed-a": lambda s: _pairwise_separating(s.cols_a),
    "closed-b": lambda s: _pairwise_separating(s.rows_b),
    "covered": lambda s: all(s.cols_a) and all(s.rows_b),
    "row-bound": lambda s: all(x.bit_count() <= s.r - 2 for x in s.rows_a + s.cols_b),
    "column-bound": lambda s: all(x.bit_count() <= s.r - 1 for x in s.cols_a + s.rows_b),
    "no-rectangle": lambda s: s.rectangle is None,
    "positive": lambda s: _positive(s.rows_a, s.cols_b or s.rows_a, s.r),
}


def _positive(rows_a, cols_b, r: int) -> bool:
    # No entry of the product vanishes: no zero mask of a row of A and of a
    # column of B together cover all r inner indices.  Any bit order serves
    # as long as both sides share it.
    return (1 << r) - 1 not in {a | b for a in rows_a for b in cols_b}


@dataclass(frozen=True)
class ConditionResult:
    name: str
    applicable: bool
    passed: bool | None
    detail: str = ""


@dataclass(frozen=True)
class NecessaryConditionsReport:
    conditions: tuple[ConditionResult, ...]


def condition_report(support: ZeroSupport, labels) -> NecessaryConditionsReport:
    """Report the labelled conditions on one support.

    Each label is (name, predicates under which it applies, predicate,
    detail[, detail of a failure]).  The details may name the zero count
    {count} and the tight count {tight}; a failure detail names the fields
    of the first violating rectangle.  No condition applies at r = 1, where
    the motion space is zero.
    """
    fields = {"count": support.zero_count, "tight": support.tight_count}
    results = []
    for name, scope, predicate, detail, *failure in labels:
        applicable = support.r >= 2 and all(_PREDICATES[p](support) for p in scope)
        passed = _PREDICATES[predicate](support) if applicable else None
        text = detail.format_map(fields)
        if passed is False and failure:
            text = failure[0].format_map(vars(support.rectangle))
        results.append(ConditionResult(name, applicable, passed, text))
    return NecessaryConditionsReport(tuple(results))


def check_wpoint(pattern: ZeroPattern) -> bool:
    """Zero count at least r^2-r+1 and both factors boundary closed; vacuous at r = 1."""
    names = ("enough-zeros", "closed-a", "closed-b")
    return pattern.r < 2 or all(_PREDICATES[p](pattern.support) for p in names)


def forces_product_zero(pattern: ZeroPattern) -> bool:
    """True when some product entry is identically zero under the pattern.

    A rigid factorization with the tight zero count has a strictly positive
    product, so such patterns admit no rigid realization.
    """
    return not _PREDICATES["positive"](pattern.support)


def check_column_bound(pattern: ZeroPattern) -> bool:
    """Every column of A and row of B has <= r-1 zeros: necessary for
    rigidity at the tight count r^2-r+1, a plain filter at any other."""
    return _PREDICATES["column-bound"](pattern.support)


def check_zero_rectangles(pattern: ZeroPattern) -> RectangleViolation | None:
    """The first oversized zero rectangle pair (`ZeroSupport.rectangle`), or
    None if the pattern passes; the bound holds only at r^2-r+1 zeros."""
    support = pattern.support
    if not _PREDICATES["tight"](support):
        raise ValueError(
            f"check applies only at exactly {support.tight_count} zeros, "
            f"pattern has {support.zero_count}"
        )
    return support.rectangle


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perms(r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.permutations(range(r)))


@lru_cache(maxsize=None)
def _perm_index(r: int) -> dict[tuple[int, ...], int]:
    return {p: i for i, p in enumerate(_perms(r))}


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for j, pj in enumerate(p):
        inv[pj] = j
    return tuple(inv)


def _field_bytes(r: int) -> int:
    # Bytes per row code in a spread word: 1 up to r = 8, then 2, 4 or 8,
    # the native unsigned types B, H, I and Q that `memoryview.cast` reads.
    return 1 << max(0, (r - 1).bit_length() - 3)


def _spread(masks: tuple[int, ...], r: int) -> list[int]:
    # Each mask with its bit i moved to the low bit of byte-aligned field i
    # (`_field_bytes(r)` bytes wide), so that r spread masks shifted by
    # distinct amounts below r never share a bit or leave their field.
    stride = 8 * _field_bytes(r)
    out = []
    for mask in masks:
        spread = 0
        while mask:
            low = mask & -mask
            spread |= 1 << (low.bit_length() - 1) * stride
            mask ^= low
        out.append(spread)
    return out


def _enc_a(spreads: list[int], perm: tuple[int, ...], ground: int, r: int) -> list[int]:
    # Rows of the A-pattern after applying `perm` to the inner index, each
    # an r-bit code with inner slot 0 as the most significant bit, sorted
    # ascending (= the optimal row permutation).  `spreads` holds the side's
    # slot masks from `_spread`: r shift-ors lay every row code out in its
    # own byte-aligned field, and the fields are split and sorted in C.
    word = 0
    for j in perm:
        word = (word << 1) | spreads[j]
    if r <= 8:
        return sorted(word.to_bytes(ground, sys.byteorder))
    size = _field_bytes(r)
    codes = memoryview(word.to_bytes(ground * size, sys.byteorder))
    return sorted(codes.cast("BHIQ"[size.bit_length() - 1]))


def _transpose(codes: list[int], width: int) -> tuple[int, ...]:
    # The columns of the bit matrix whose rows are `codes` (`width` bits,
    # column 0 most significant), each read top to bottom.
    out = []
    for shift in range(width - 1, -1, -1):
        w = 0
        for code in codes:
            w = (w << 1) | ((code >> shift) & 1)
        out.append(w)
    return tuple(out)


class _Readings(dict):
    # A side's reading table: its reading as a B side under each inner
    # permutation, keyed by the permutation's position in `_perms(r)`,
    # encoded on the first lookup and kept for every later pair.  The
    # columns of the permuted B-pattern (read top to bottom) are the rows
    # `_enc_a` builds from the spread rows of B, sorted; their row-major
    # reading is the transpose.  Sorting columns minimizes that reading
    # over all column permutations.

    def __init__(self, masks: tuple[int, ...], ground: int, r: int):
        self.spreads, self.ground, self.r = _spread(masks, r), ground, r

    def __missing__(self, perm: int) -> tuple[int, ...]:
        cols = _enc_a(self.spreads, _perms(self.r)[perm], self.ground, self.r)
        self[perm] = reading = _transpose(cols, self.r)
        return reading


class _Columns(dict):
    # Argmin s -> the positions in `_perms(r)` of the composition q.s
    # (j -> q[s[j]]) for each alignment q, as one array: composed for the
    # first side with that argmin and shared by every later side of the
    # same enumeration, so the table holds at most r! columns.

    def __init__(self, alignments, r: int):
        self.alignments, self.index = alignments, _perm_index(r)
        self.typecode = "H" if len(self.index) <= 1 << 16 else "I"

    def __missing__(self, s: tuple[int, ...]) -> array:
        # itemgetter(*s) composes with s; r = 1 has only the identity.
        composed = map(itemgetter(*s), self.alignments) if len(s) > 1 else self.alignments
        self[s] = column = array(self.typecode, map(self.index.__getitem__, composed))
        return column


def _side(
    masks: tuple[int, ...], ground: int, r: int, key: tuple[int, ...], mins, columns
) -> tuple:
    # One side as the pair key reads it: (reading table, side key, the
    # columns of its argmins s of `_side_key`).  With `columns` None the
    # side's orders are never read (a B side of a non-square shape).
    aligned = [columns[s] for s in mins] if columns is not None else []
    return _Readings(masks, ground, r), key, aligned


def _pair_key(
    m: int, n: int, side_a: tuple, side_b: tuple, pi: int, pi_inv: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Canonical key of the pair whose B slot j is slot q[j] of side_b, q
    # alignment pi of the sides' columns and inv(q) alignment pi_inv.  The
    # A side is minimized first, so only its argmins s can order the B side:
    # B is read under q.s, entry pi of s's column.  For m = n the transposed
    # pair, A read under inv(q).s for each argmin s of B (entry pi_inv of
    # its column), competes too.
    a_read, a_key, a_cols = side_a
    b_read, b_key, b_cols = side_b
    key = (a_key, min([b_read[col[pi]] for col in a_cols]))
    if m == n:
        key = min(key, (b_key, min([a_read[col[pi_inv]] for col in b_cols])))
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
    cols_a, rows_b = pattern.support.cols_a, pattern.support.rows_b
    identity = _Columns(_perms(r)[:1], r)
    side_a = _side(cols_a, m, r, *_side_key(cols_a, m, r), identity)
    side_b = _side(rows_b, n, r, *_side_key(rows_b, n, r), identity)
    return _pattern_from_key(m, n, r, _pair_key(m, n, side_a, side_b, 0, 0))


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
    to per-side orbit representatives.  Each side is prepared once: its
    reading table (its B reading under each inner permutation, encoded on
    first use) and the columns of its argmin inner permutations (each
    argmin composed with every alignment, as positions in the permutation
    list), taken from one table per enumeration that both sides share; a
    B side needs them only for m = n, where it reads them at the inverse
    alignment.  Each A side then meets each B side in every inner
    alignment, and the pair key there is a lookup of the one side's columns
    in the other's reading table: nothing is composed or encoded per pair.
    The keys are deduplicated and decoded in sorted order, exactly as
    `canonical_form` decodes its one.  Row codes are split out of
    byte-aligned fields by `int.to_bytes` and sorted in C (see `_enc_a`).
    The filters below are invariant under the full group, so they run last,
    on representatives only: POSITIVE_PRODUCT on the sorted keys, A's row
    codes against B's column codes, before any pattern is built, and the
    expensive zero rectangle filter on the decoded patterns.  The rectangle
    bound holds only at r*r - r + 1 zeros, so any other count with that
    filter raises ValueError before any work.

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
        raise ValueError(
            f"zero-rectangles applies only at exactly {_shown(tight)} zeros, not {_shown(zeros)}"
        )
    if wpoint and r >= 2 and zeros < tight:
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

    perms, index = _perms(r), _perm_index(r)
    columns = _Columns(perms, r)
    b_columns = columns if m == n else None
    # Each alignment's position with that of its inverse, where B reads.
    alignments = [(pi, index[_invert(q)]) for pi, q in enumerate(perms)]
    found: dict = {}
    for z_a, a_list in sorted(a_sides.items()):
        b_list = b_sides.get(zeros - z_a)
        if not b_list:
            continue
        b_read_sides = [_side(masks, n, r, key, mins, b_columns) for masks, key, mins in b_list]
        for a_masks, a_key, a_mins in a_list:
            side_a = _side(a_masks, m, r, a_key, a_mins, columns)
            for side_b in b_read_sides:
                for pi, pi_inv in alignments:
                    found.setdefault(_pair_key(m, n, side_a, side_b, pi, pi_inv))
    keys = sorted(found)
    if PatternFilter.POSITIVE_PRODUCT in fset:
        keys = [key for key in keys if _positive(key[0], _transpose(key[1], n), r)]
    reps = [_pattern_from_key(m, n, r, key) for key in keys]
    if PatternFilter.ZERO_RECTANGLES in fset:
        reps = [p for p in reps if check_zero_rectangles(p) is None]
    return reps


def canonical_symmetric_pattern(zeros_a: BoolMatrix) -> BoolMatrix:
    """Canonical form of a factor zero pattern under row and column permutations.

    No transpose and no second factor here: a symmetric factor is one side
    of a pair pattern, so this is its side key (rows sorted, row-major
    reading minimized over all column permutations), decoded.
    """
    n = len(zeros_a)
    r = len(zeros_a[0]) if n else 0
    return _decode_rows(_side_key(ZeroSupport.of(r, zeros_a).cols_a, n, r)[0], r)


def enumerate_symmetric_patterns(
    n: int, r: int, zeros: int, require_pairs: bool = True, column_bound: bool = False
) -> list[BoolMatrix]:
    """Canonical factor zero patterns with the given zero count.

    `require_pairs` imposes the one-sided boundary-closed condition (some
    row zero at i and nonzero at j for every ordered pair), which is the
    symmetric counterpart of the rigidity count filter; `column_bound`
    imposes at most r-1 zeros per column.  The columns of A are generated
    and reduced to orbit representatives by the side generator of the pair
    enumeration, which also rejects an all-zero row of A (it drops no rank
    but is never realizable).  No published counts exist for this case, so
    the enumeration is provided as a generic tool only.
    """
    if n < 1 or r < 1 or zeros < 0:
        raise ValueError("dimensions must be positive and zeros nonnegative")
    _require_attainable_rank(n, n, r)
    cap = min(n, r - 1 if column_bound else n)
    sides = _side_classes(n, r, cap, require_pairs, False, zeros, zeros)
    return sorted(_decode_rows(key, r) for _, key, _ in sides.get(zeros, ()))


# The `theorem` preset: the conditions of the main theorem alone, the
# other published reading of the 5x5 count.
THEOREM_FILTERS = frozenset({PatternFilter.WPOINT, PatternFilter.ROW_COVERAGE_A, PatternFilter.POSITIVE_PRODUCT})


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
