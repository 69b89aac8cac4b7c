import functools
import hashlib
import itertools
import random

import pytest

from nmfrigid import formats, patterns
from nmfrigid.cli import _parse_filters
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.patterns import (
    PatternFilter,
    PatternGroupElement,
    ZeroPattern,
    _enc_a,
    _pattern_from_key,
    _side_classes,
    _side_key,
    _spread,
    canonical_form,
    check_column_bound,
    check_wpoint,
    check_zero_rectangles,
    enumerate_patterns,
    forces_product_zero,
    table1_filters,
)
from reference_data import (
    rectangle_violation_pattern_6x5,
    twelve_zero_pattern_5x7,
    unique_7_zero_pattern_r3,
)


def rand_pattern(rng, m=4, n=4, r=3, zero_prob=0.3):
    while True:
        zeros_a = tuple(
            tuple(rng.random() < zero_prob for _ in range(r)) for _ in range(m)
        )
        zeros_b = tuple(
            tuple(rng.random() < zero_prob for _ in range(n)) for _ in range(r)
        )
        try:
            return ZeroPattern(m, n, r, zeros_a, zeros_b)
        except ValueError:
            continue


def rand_group_element(rng, m, n, r, allow_transpose):
    rows = list(range(m))
    cols = list(range(n))
    inner = list(range(r))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(inner)
    transposed = allow_transpose and rng.random() < 0.5
    return PatternGroupElement(tuple(rows), tuple(cols), tuple(inner), transposed)


# ---------------------------------------------------------------------------
# Invariants of the pattern type
# ---------------------------------------------------------------------------

def test_all_zero_row_of_a_rejected():
    with pytest.raises(ValueError, match="row 0"):
        ZeroPattern(
            2, 2, 2,
            ((True, True), (False, False)),
            ((False, False), (False, False)),
        )


def test_all_zero_column_of_b_rejected():
    with pytest.raises(ValueError, match="column 1"):
        ZeroPattern(
            2, 2, 2,
            ((False, False), (False, False)),
            ((False, True), (False, True)),
        )


def test_rank_above_shape_rejected():
    with pytest.raises(ValueError) as info:
        ZeroPattern(
            2, 2, 3,
            ((True, False, False), (False, True, False)),
            ((False, False), (True, False), (False, True)),
        )
    assert str(info.value) == (
        "inner rank 3 exceeds min(m, n) = 2: no full-rank factorization has that inner size"
    )


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def test_wpoint_unique_r3_pattern():
    assert check_wpoint(unique_7_zero_pattern_r3())


def test_wpoint_rejects_twelve_zero_pattern():
    pattern = twelve_zero_pattern_5x7()
    assert pattern.zero_count == 12
    assert not check_wpoint(pattern)


def test_wpoint_rejects_empty_pattern():
    empty = ZeroPattern(
        3, 3, 3,
        tuple(tuple(False for _ in range(3)) for _ in range(3)),
        tuple(tuple(False for _ in range(3)) for _ in range(3)),
    )
    assert not check_wpoint(empty)


def test_column_bound_examples():
    for fixture in RIGID_5X5[:3]:
        assert check_column_bound(fixture.pair().zero_pattern())
    assert check_column_bound(unique_7_zero_pattern_r3())
    # A column of the A-pattern with r zeros violates the bound.
    bad = ZeroPattern(
        5, 4, 3,
        (
            (True, False, False),
            (True, False, False),
            (True, False, False),
            (False, True, False),
            (False, False, False),
        ),
        (
            (True, False, False, False),
            (False, True, False, False),
            (False, False, True, False),
        ),
    )
    assert bad.zero_count == 7
    assert not check_column_bound(bad)


def test_column_bound_check_agrees_with_the_filter_off_the_tight_count():
    # The bound is literal at every zero count: the filter keeps exactly the
    # unfiltered representatives that pass the check, below and above r^2-r+1.
    for zeros in (6, 8):
        bounded = enumerate_patterns(5, 4, 3, zeros, {PatternFilter.COLUMN_BOUND})
        assert bounded and all(check_column_bound(p) for p in bounded)
        everything = enumerate_patterns(5, 4, 3, zeros, set())
        assert [p for p in everything if check_column_bound(p)] == bounded
        assert len(everything) > len(bounded)


def test_positive_product_filter_agrees_with_forces_product_zero():
    # The filter reads the sorted keys before any pattern is built; it keeps
    # exactly the representatives that `forces_product_zero` clears, on
    # square and non-square shapes in both orientations.
    for m, n, r, zeros, base in (
        (3, 3, 2, 3, set()),
        (5, 4, 3, 6, set()),
        (4, 6, 3, 8, set()),
        (5, 5, 4, 13, {PatternFilter.WPOINT}),
    ):
        everything = enumerate_patterns(m, n, r, zeros, base)
        kept = enumerate_patterns(m, n, r, zeros, base | {PatternFilter.POSITIVE_PRODUCT})
        assert kept == [p for p in everything if not forces_product_zero(p)]
        assert 0 < len(kept) < len(everything)


def test_zero_rectangles_finds_published_violation():
    pattern = rectangle_violation_pattern_6x5()
    violation = check_zero_rectangles(pattern)
    assert violation is not None
    # The specific oversized pair on this labeling: two rows of A zero on
    # columns {0,1} and two columns of B zero on row 2 give 6 > 5.
    r = 4
    alpha, beta = (0, 1), (2,)
    k = sum(
        1 for i in range(pattern.m)
        if all(pattern.zeros_a[i][j] for j in alpha)
    )
    l = sum(
        1 for col in range(pattern.n)
        if all(pattern.zeros_b[i][col] for i in beta)
    )
    assert (k, l) == (2, 2)
    lhs = k * len(alpha) + l * len(beta)
    rhs = (
        (r - len(alpha)) * len(alpha)
        + (r - len(beta)) * len(beta)
        - len(set(alpha) - set(beta)) * len(set(beta) - set(alpha))
    )
    assert lhs == 6 and rhs == 5


def test_zero_rectangles_pass_for_fixture():
    assert check_zero_rectangles(RIGID_5X5[0].pair().zero_pattern()) is None


def test_filters_invariant_under_group():
    rng = random.Random(21)
    for _ in range(60):
        pattern = rand_pattern(rng, m=4, n=4, r=3)
        g = rand_group_element(rng, 4, 4, 3, allow_transpose=True)
        image = g.apply(pattern)
        assert check_wpoint(pattern) == check_wpoint(image)
        assert forces_product_zero(pattern) == forces_product_zero(image)
        assert check_column_bound(pattern) == check_column_bound(image)
        if pattern.zero_count == 3 * 3 - 3 + 1:
            assert (check_zero_rectangles(pattern) is None) == (
                check_zero_rectangles(image) is None
            )


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------

def test_canonical_idempotent():
    rng = random.Random(22)
    for _ in range(200):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        pattern = rand_pattern(rng, m=m, n=n, r=rng.randint(2, min(3, m, n)))
        canon = canonical_form(pattern)
        assert canonical_form(canon) == canon


def test_canonical_constant_on_orbits():
    rng = random.Random(23)
    for _ in range(200):
        m = n = rng.randint(2, 4)
        pattern = rand_pattern(rng, m=m, n=n, r=rng.randint(2, min(3, m, n)))
        g = rand_group_element(rng, m, n, pattern.r, allow_transpose=True)
        assert canonical_form(g.apply(pattern)) == canonical_form(pattern)


def test_canonical_identifies_inner_permutations_of_r3_pattern():
    base = unique_7_zero_pattern_r3()
    rng = random.Random(24)
    for _ in range(20):
        g = rand_group_element(rng, base.m, base.n, base.r, allow_transpose=False)
        assert canonical_form(g.apply(base)) == canonical_form(base)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def brute_force_reps(m, n, r, zeros, filters):
    cells = [("A", i, j) for i in range(m) for j in range(r)] + [
        ("B", i, l) for i in range(r) for l in range(n)
    ]
    fset = {PatternFilter(f) if not isinstance(f, PatternFilter) else f for f in filters}
    reps = {}
    for placement in itertools.combinations(range(len(cells)), zeros):
        za = [[False] * r for _ in range(m)]
        zb = [[False] * n for _ in range(r)]
        for idx in placement:
            kind, i, j = cells[idx]
            if kind == "A":
                za[i][j] = True
            else:
                zb[i][j] = True
        try:
            pattern = ZeroPattern(
                m, n, r, tuple(map(tuple, za)), tuple(map(tuple, zb))
            )
        except ValueError:
            continue
        if PatternFilter.WPOINT in fset and not check_wpoint(pattern):
            continue
        if PatternFilter.COLUMN_BOUND in fset:
            cols_ok = all(mask.bit_count() <= r - 1 for mask in pattern.support.cols_a)
            rows_ok = all(mask.bit_count() <= r - 1 for mask in pattern.support.rows_b)
            if not (cols_ok and rows_ok):
                continue
        if PatternFilter.ROW_COVERAGE_A in fset and not all(
            any(row) for row in pattern.zeros_a
        ):
            continue
        if PatternFilter.COLUMN_COVERAGE_B in fset and not all(
            any(pattern.zeros_b[i][l] for i in range(r)) for l in range(n)
        ):
            continue
        if PatternFilter.POSITIVE_PRODUCT in fset and forces_product_zero(pattern):
            continue
        canon = canonical_form(pattern)
        reps[(canon.zeros_a, canon.zeros_b)] = canon
    return reps


@pytest.mark.parametrize(
    "filters",
    [
        frozenset(),
        frozenset({PatternFilter.WPOINT}),
        frozenset({PatternFilter.WPOINT, PatternFilter.ROW_COVERAGE_A}),
        frozenset({PatternFilter.WPOINT, PatternFilter.POSITIVE_PRODUCT}),
    ],
)
def test_enumeration_matches_brute_force_tiny(filters):
    m = n = 3
    r, zeros = 2, 3
    expected = brute_force_reps(m, n, r, zeros, filters)
    got = enumerate_patterns(m, n, r, zeros, filters)
    assert {(p.zeros_a, p.zeros_b) for p in got} == set(expected)


def test_enumeration_matches_brute_force_rectangular():
    expected = brute_force_reps(4, 3, 2, 3, {PatternFilter.WPOINT})
    got = enumerate_patterns(4, 3, 2, 3, {PatternFilter.WPOINT})
    assert {(p.zeros_a, p.zeros_b) for p in got} == set(expected)


def test_enumeration_unique_r3_pattern():
    reps = enumerate_patterns(4, 3, 3, 7, {PatternFilter.WPOINT})
    assert len(reps) == 1
    assert reps[0] == canonical_form(unique_7_zero_pattern_r3())


def test_enumeration_zero_count_below_threshold_is_empty():
    assert enumerate_patterns(2, 2, 2, 0, {PatternFilter.WPOINT}) == []


def test_enumeration_output_is_canonical_and_duplicate_free():
    reps = enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))
    keys = {(p.zeros_a, p.zeros_b) for p in reps}
    assert len(keys) == len(reps)
    for p in reps:
        assert canonical_form(p) == p
        assert all(mask for mask in p.support.cols_a)
        assert all(mask for mask in p.support.rows_b)


def test_fixture_patterns_are_exactly_the_5x5_representatives():
    reps = {(p.zeros_a, p.zeros_b) for p in enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))}
    fixture_reps = {
        (
            canonical_form(f.pair().zero_pattern()).zeros_a,
            canonical_form(f.pair().zero_pattern()).zeros_b,
        )
        for f in RIGID_5X5
    }
    assert fixture_reps == reps


# ---------------------------------------------------------------------------
# The enumeration engine against the plain search it replaced
# ---------------------------------------------------------------------------

TABLE1_SHAPES = ((5, 5), (6, 5), (6, 6), (7, 5), (7, 6), (8, 5), (9, 5))


def reference_rows(masks, perm, ground, r):
    # The side's sorted row codes under one inner permutation, packed bit
    # by bit, inner slot 0 the most significant.
    rows = []
    for i in range(ground):
        v = 0
        for j in range(r):
            v = (v << 1) | ((masks[perm[j]] >> i) & 1)
        rows.append(v)
    return sorted(rows)


def reference_side_key(masks, ground, r):
    # The side key packed bit by bit under every inner permutation.
    best, argmins = None, []
    for perm in itertools.permutations(range(r)):
        enc = tuple(reference_rows(masks, perm, ground, r))
        if best is None or enc < best:
            best, argmins = enc, [perm]
        elif enc == best:
            argmins.append(perm)
    return best, tuple(argmins)


def reference_side_classes(ground, r, cap, incomparable, cover, z_min, z_max):
    # Every sorted slot tuple in the zero-count window, first of each key
    # kept: the search with no pruning by ground relabeling.  It keys with
    # `_side_key`, which the bitwise reference above checks, to stay fast.
    full = (1 << ground) - 1
    masks = sorted(
        (m for m in range(1 << ground) if m.bit_count() <= cap),
        key=lambda m: (m.bit_count(), m),
    )
    out, seen, chosen = {}, {}, []

    def rec(start, total, acc_and, acc_or):
        if len(chosen) == r:
            if acc_and or (cover and acc_or != full):
                return
            tup = tuple(chosen)
            key, mins = _side_key(tup, ground, r)
            if key not in seen.setdefault(total, set()):
                seen[total].add(key)
                out.setdefault(total, []).append((tup, key, mins))
            return
        remaining = r - len(chosen)
        for idx in range(start, len(masks)):
            cand = masks[idx]
            pc = cand.bit_count()
            if total + remaining * pc > z_max:
                break
            if total + pc + (remaining - 1) * cap < z_min:
                continue
            if incomparable and any(p & ~cand == 0 or cand & ~p == 0 for p in chosen):
                continue
            chosen.append(cand)
            rec(idx, total + pc, acc_and & cand, acc_or | cand)
            chosen.pop()

    rec(0, 0, full, 0)
    return out


def test_side_key_matches_bitwise_packing():
    rng = random.Random(31)
    for _ in range(3000):
        ground, r = rng.randint(1, 8), rng.randint(1, 5)
        pool = [0, (1 << ground) - 1] + [rng.randrange(1 << ground) for _ in range(2)]
        masks = tuple(rng.choice(pool) for _ in range(r))
        assert _side_key(masks, ground, r) == reference_side_key(masks, ground, r), (
            masks, ground, r
        )


@pytest.mark.parametrize("r", [8, 9, 16, 17, 33])
def test_row_codes_match_bitwise_packing_in_every_field_width(r):
    # No sweep reaches r > 5: these sizes take the one-byte fields to their
    # last slot and the two-, four- and eight-byte fields to their first.
    rng = random.Random(r)
    for ground in (1, 7):
        masks = tuple(rng.randrange(1 << ground) for _ in range(r))
        perm = tuple(rng.sample(range(r), r))
        assert _enc_a(_spread(masks, r), perm, ground, r) == reference_rows(masks, perm, ground, r)


@pytest.mark.parametrize("ground", range(1, 7))
def test_side_classes_match_unpruned_search(ground):
    # The pruned search keeps each orbit's first member, so the buckets
    # agree tuple for tuple, in the same order.
    for r in range(1, 5):
        for cap in sorted({1, max(1, r - 1), ground}):
            for incomparable in (True, False):
                for cover in (True, False):
                    for z_min, z_max in (
                        (r, r + 1), (ground + 1, ground + 1), (ground * r - 3, ground * r)
                    ):
                        args = (ground, r, cap, incomparable, cover, z_min, z_max)
                        assert _side_classes(*args) == reference_side_classes(*args), args


@pytest.mark.parametrize(
    "preset, count, digest",
    [
        ("table1", 102, "dee48bef7f2276cda63234d9e97ff748fd710881997ff7b127f3f51729e2b4f3"),
        ("theorem", 209, "28de4b1a8ce6b275d3a8b2a2422d8ef6411204a2b91cbe34c98638f476b77596"),
        (
            "wpoint,zero-rectangles",
            633,
            "21ff0c4fccf37b87ab695329b00f6084922b12477231f8d74f3ce0d548c4aee6",
        ),
    ],
    ids=["table1", "theorem", "wpoint-zero-rectangles"],
)
def test_table1_sweep_representatives_are_pinned(preset, count, digest):
    h = hashlib.sha256()
    total = 0
    for m, n in TABLE1_SHAPES:
        for pattern in enumerate_patterns(m, n, 4, 13, _parse_filters(preset, m, n)):
            h.update(formats.dump_pattern(pattern).encode())
            total += 1
    assert (total, h.hexdigest()) == (count, digest)


def test_table1_sweep_side_key_count(monkeypatch):
    calls = 0
    side_key = patterns._side_key

    def counting(*args):
        nonlocal calls
        calls += 1
        return side_key(*args)

    monkeypatch.setattr(patterns, "_side_key", counting)
    for m, n in TABLE1_SHAPES:
        enumerate_patterns(m, n, 4, 13, table1_filters(m, n))
    assert calls == 168


@pytest.mark.parametrize(
    "m, n, count, digest",
    [
        (5, 5, 112, "ce0eb1b23e16726a9bffa1ad5b9f07c14ee01c971a0ea95f2903c4f2d2c21828"),
        (6, 5, 2433, "5423579a992cf2ec7795d978cdde5d8c2a0b9838430aa28c41af52f54c75a80f"),
        (6, 6, 8613, "016041ff1a6e9819b5dd8a16d8a6b4d4d4b7efb3aa2b60c86d91bbe15285c83b"),
        (7, 5, 7891, "f14c0b1f8f240b8e0429c0d9075f115dfd9bf2ca98e5e1d3880b7423d9557e11"),
    ],
    ids=["5x5", "6x5", "6x6", "7x5"],
)
def test_rank_five_representatives(m, n, count, digest):
    reps = enumerate_patterns(m, n, 5, 21, table1_filters(m, n))
    h = hashlib.sha256()
    for p in reps:
        h.update(formats.dump_pattern(p).encode())
    assert (len(reps), h.hexdigest()) == (count, digest)
    assert len({(p.zeros_a, p.zeros_b) for p in reps}) == len(reps)
    assert all(canonical_form(p) == p for p in reps)
    rng = random.Random(41)
    for p in rng.sample(reps, 12):
        g = rand_group_element(rng, m, n, 5, allow_transpose=m == n)
        assert canonical_form(g.apply(p)) == p


# ---------------------------------------------------------------------------
# Pairing by reading tables against the per-pair encodings it replaced
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def reference_reading(masks, order, ground, r):
    # The B side under `order`, read bit by bit: its column codes (slot
    # order[0] the most significant) sorted, then the rows of that matrix,
    # column 0 the most significant.  Memoised: the pairing references
    # read each aligned side once per pair.
    cols = reference_rows(masks, order, ground, r)
    return tuple(
        sum(((cols[p] >> (r - 1 - t)) & 1) << (ground - 1 - p) for p in range(ground))
        for t in range(r)
    )


def reference_pair_key(m, n, r, a_masks, a_key, a_mins, b_masks, b_key, b_mins):
    # One reading of the other side per argmin: B under each A argmin and,
    # for m = n, A under each B argmin.
    key = (a_key, min(reference_reading(b_masks, perm, n, r) for perm in a_mins))
    if m == n:
        key = min(key, (b_key, min(reference_reading(a_masks, perm, m, r) for perm in b_mins)))
    return key


def reference_enumeration(m, n, r, zeros, a_sides, b_sides):
    # Every A side against an aligned copy of every B side per inner order
    # pi, B slot j being slot pi[j], with each B argmin rho moved to
    # _compose(inv(pi), rho).
    keys = set()
    for z_a, a_list in a_sides.items():
        for b_masks, b_key, b_mins in b_sides.get(zeros - z_a, ()):
            for pi in itertools.permutations(range(r)):
                aligned = tuple(b_masks[j] for j in pi)
                moved = [tuple(pi.index(x) for x in rho) for rho in b_mins]
                for a_masks, a_key, a_mins in a_list:
                    keys.add(reference_pair_key(
                        m, n, r, a_masks, a_key, a_mins, aligned, b_key, moved
                    ))
    return [_pattern_from_key(m, n, r, key) for key in sorted(keys)]


PAIRING_FILTERS = [
    frozenset(),
    frozenset({PatternFilter.WPOINT}),
    frozenset({PatternFilter.COLUMN_BOUND}),
    frozenset({PatternFilter.ROW_COVERAGE_A, PatternFilter.COLUMN_COVERAGE_B}),
    frozenset({PatternFilter.WPOINT, PatternFilter.COLUMN_BOUND, PatternFilter.ROW_COVERAGE_A}),
]


@pytest.mark.parametrize(
    "filters", PAIRING_FILTERS, ids=lambda f: ",".join(sorted(x.value for x in f)) or "none"
)
def test_pairing_matches_per_pair_encodings(monkeypatch, filters):
    # With no filter, slots may repeat or be empty, so sides with large
    # automorphism groups and many argmins are paired too.
    sides = []

    def recording(*args):
        sides.append(_side_classes(*args))
        return sides[-1]

    monkeypatch.setattr(patterns, "_side_classes", recording)
    for m in range(1, 5):
        for n in range(1, 5):
            for r in range(1, min(m, n) + 1):
                for zeros in range(9):
                    sides.clear()
                    got = enumerate_patterns(m, n, r, zeros, filters)
                    expected = reference_enumeration(m, n, r, zeros, *sides) if sides else []
                    assert got == expected, (m, n, r, zeros)


def test_canonical_form_matches_per_pair_encodings():
    rng = random.Random(43)
    for _ in range(1500):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(1, min(m, n, 4))
        pattern = rand_pattern(rng, m, n, r, zero_prob=0.1 + 0.4 * rng.random())
        cols_a, rows_b = pattern.support.cols_a, pattern.support.rows_b
        key = reference_pair_key(
            m, n, r, cols_a, *_side_key(cols_a, m, r), rows_b, *_side_key(rows_b, n, r)
        )
        assert canonical_form(pattern) == _pattern_from_key(m, n, r, key), pattern


def test_pairing_encodes_each_side_at_most_once_per_inner_order(monkeypatch):
    # The table-1 sweep paired 11,952 readings, one per pair and argmin;
    # reading tables encode at most r! per side.
    calls = sides = 0
    encode, side_classes = patterns._Readings.__missing__, patterns._side_classes

    def counting_encode(self, perm):
        nonlocal calls
        calls += 1
        return encode(self, perm)

    def counting_sides(*args):
        nonlocal sides
        out = side_classes(*args)
        sides += sum(len(bucket) for bucket in out.values())
        return out

    monkeypatch.setattr(patterns._Readings, "__missing__", counting_encode)
    monkeypatch.setattr(patterns, "_side_classes", counting_sides)
    for m, n in TABLE1_SHAPES:
        enumerate_patterns(m, n, 4, 13, table1_filters(m, n))
    assert sides == 84
    assert calls <= 24 * sides


def test_pairing_composes_each_argmin_once_per_alignment(monkeypatch):
    # The table-1 sweep composed 11,952 orders, one per pair, alignment and
    # argmin.  Composed once per distinct argmin and enumeration, into a
    # column shared by both sides (and for non-square shapes only by the A
    # side, the one side whose orders are read), they are at most r! per
    # argmin of every side, however many pairs the sides meet in.
    composed = argmins = 0
    missing, side_classes = patterns._Columns.__missing__, patterns._side_classes

    def counting_missing(self, s):
        nonlocal composed
        composed += len(self.alignments)
        return missing(self, s)

    def counting_sides(*args):
        nonlocal argmins
        out = side_classes(*args)
        argmins += sum(len(mins) for bucket in out.values() for _, _, mins in bucket)
        return out

    monkeypatch.setattr(patterns._Columns, "__missing__", counting_missing)
    monkeypatch.setattr(patterns, "_side_classes", counting_sides)
    for m, n in TABLE1_SHAPES:
        enumerate_patterns(m, n, 4, 13, table1_filters(m, n))
    assert argmins == 388
    assert composed <= 24 * argmins
    assert composed == 2232


def test_sides_share_one_column_per_distinct_argmin(monkeypatch):
    # All-empty sides: every inner order is an argmin of both, so the table
    # is S_r's whole multiplication table, built once for the two sides
    # (r!^2 positions, two bytes each), never once per side or per pair.
    tables = []
    init = patterns._Columns.__init__

    def recording_init(self, *args):
        init(self, *args)
        tables.append(self)

    monkeypatch.setattr(patterns._Columns, "__init__", recording_init)
    assert len(enumerate_patterns(5, 5, 5, 0, frozenset())) == 1
    (table,) = tables
    assert len(table) == 120
    assert all(col.typecode == "H" and len(col) == 120 for col in table.values())
    assert sorted(col[0] for col in table.values()) == list(range(120))
