import random
from fractions import Fraction

import pytest

from nmfrigid.cone import lp_feasible
from nmfrigid.exactlin import RationalMatrix, matmul, rank
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.patterns import ZeroPattern
from nmfrigid.realize import (
    LiftInfeasibleError,
    RealizationSearchConfig,
    extend_positive,
    lift_partially_rigid,
    realize_pattern,
)
from nmfrigid.rigidity import (
    Classification,
    FactorizationPair,
    build_dual_generators,
    certify,
    is_infinitesimally_rigid,
)
from reference_data import (
    LIFT_DEMO_LIFTED_A,
    LIFT_DEMO_LIFTED_B,
    circulant_pair,
    lift_demo_pair,
    twelve_zero_pattern_5x7,
)


def test_config_validation():
    with pytest.raises(ValueError):
        RealizationSearchConfig(entry_low=0, entry_high=10)
    with pytest.raises(ValueError):
        RealizationSearchConfig(entry_low=5, entry_high=2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("entry_low", 1.5),
        ("entry_low", "1"),
        ("entry_low", True),
        ("entry_high", 10.0),
        ("entry_high", "10"),
        ("max_samples", 2.5),
        ("max_samples", "5"),
        ("max_samples", False),
    ],
)
def test_config_refuses_non_int_bounds_and_budget(field, value):
    # The draws are plain ints from randint, which needs int bounds.
    with pytest.raises(ValueError, match=f"{field} must be an int"):
        RealizationSearchConfig(**{field: value})


def count_draws(monkeypatch, counts):
    # Counts the draws that searches put to their accept test, and the
    # accepted ones, in counts["draws"] and counts["accepted"].
    from nmfrigid import realize

    accept_test = realize.accept_test

    def counting_plan(zeros_a, zeros_b):
        accepts = accept_test(zeros_a, zeros_b)

        def counting_accept(values):
            counts["draws"] += 1
            accepted = accepts(values)
            counts["accepted"] += accepted
            return accepted

        return counting_accept

    monkeypatch.setattr(realize, "accept_test", counting_plan)


def test_search_builds_a_pair_only_for_accepted_draws(monkeypatch):
    # Seed 1 on the 15 table-1 representatives: 686 draws, 15 accepted.
    # Each draw is decided on ints; a FactorizationPair is built for the
    # accepted ones only, and no rational kernel is computed in the search.
    from nmfrigid import exactlin, realize, rigidity
    from nmfrigid.patterns import enumerate_patterns, table1_filters

    counts = {"draws": 0, "accepted": 0, "pairs": 0, "nullspace": 0}
    pair_type = realize.FactorizationPair

    def counting_pair(a, b):
        counts["pairs"] += 1
        return pair_type(a, b)

    def counting_nullspace(m):
        counts["nullspace"] += 1
        return exactlin.nullspace_basis(m)

    count_draws(monkeypatch, counts)
    monkeypatch.setattr(realize, "FactorizationPair", counting_pair)
    monkeypatch.setattr(rigidity, "nullspace_basis", counting_nullspace)
    found = [
        realize_pattern(pattern, RealizationSearchConfig(seed=1))
        for pattern in enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))
    ]
    assert all(pair is not None for pair in found)
    assert counts == {"draws": 686, "accepted": 15, "pairs": 15, "nullspace": 0}


def test_seed1_sweep_rewrites_pinned(monkeypatch):
    # The elimination work of the seed-1 sweep over the 15 table-1
    # representatives.  The 686 draws of the search and the public test of
    # each of the 15 accepted ones run the planned steps of their pattern,
    # whose work the plan fixes: rows rewritten, rows brought up a level,
    # and the cells both write; no plan fails and falls back to
    # `one_signed_kernel`.  `eliminate` still runs the ranks of the accepted
    # factors, pinned as (calls, rows rewritten).  Through
    # `one_signed_kernel` in the same order, the draws took 8,412
    # `eliminate` calls, which rewrote the same 7,261 rows and brought the
    # same 4,722 up a level, 13 cells to a row: 155,779 cells in all.
    from nmfrigid import exactlin, rigidity
    from nmfrigid.patterns import enumerate_patterns, table1_filters

    planned = {"draws": 0, "rows": 0, "level-ups": 0, "cells": 0, "fallbacks": 0}
    work = [0, 0]
    run_steps, eliminate = rigidity.planned_one_signed_kernel, exactlin.eliminate

    def counting_steps(rows, plan, cols):
        planned["draws"] += 1
        for t, (_, _, up, cells, rewrites) in enumerate(plan[0]):
            planned["level-ups"] += up != t
            planned["rows"] += len(rewrites)
            planned["cells"] += len(cells) * (up != t) + sum(len(cells_i) for _, cells_i, _ in rewrites)
        result = run_steps(rows, plan, cols)
        planned["fallbacks"] += result is None
        return result

    def counting(rows, levels, p, col, prev):
        work[0] += 1
        work[1] += sum(1 for i, row in enumerate(rows) if i != p and row[col])
        return eliminate(rows, levels, p, col, prev)

    monkeypatch.setattr(rigidity, "planned_one_signed_kernel", counting_steps)
    monkeypatch.setattr(exactlin, "eliminate", counting)
    for pattern in enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5)):
        assert realize_pattern(pattern, RealizationSearchConfig(seed=1)) is not None
    assert planned == {"draws": 701, "rows": 7261, "level-ups": 4722, "cells": 38839, "fallbacks": 0}
    assert work == [120, 191]


def test_seed1_sweep_plans_each_pattern_once(monkeypatch):
    # With the plan memo empty, the seed-1 sweep over the 15 table-1
    # representatives plans each pattern once: the search and the public
    # test of its accepted draw share the plan, and all 701 accept tests
    # (686 draws, 15 re-tests) still run the planned steps.
    from nmfrigid import rigidity
    from nmfrigid.patterns import enumerate_patterns, table1_filters

    counts = {"plans": 0, "planned": 0}
    pivot_order, run_steps = rigidity._pivot_order, rigidity.planned_one_signed_kernel

    def counting_order(height, count, cells):
        counts["plans"] += 1
        return pivot_order(height, count, cells)

    def counting_steps(rows, plan, cols):
        counts["planned"] += 1
        return run_steps(rows, plan, cols)

    monkeypatch.setattr(rigidity, "_pivot_order", counting_order)
    monkeypatch.setattr(rigidity, "planned_one_signed_kernel", counting_steps)
    rigidity._accept_plan.cache_clear()
    for pattern in enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5)):
        assert realize_pattern(pattern, RealizationSearchConfig(seed=1)) is not None
    assert counts == {"plans": 15, "planned": 701}


# Entry ranges of the sampler test: one value, one bit, spans just below,
# at and just above a power of two, and a span wider than 32 bits.
STREAM_RANGES = [(1, 1), (1, 2), (1, 1000), (1, 1024), (1, 1025), (3, 2**40 + 7)]


@pytest.mark.parametrize("low, high", STREAM_RANGES)
def test_sampler_draws_the_randint_stream(low, high):
    # Scattered slots, some negated as B's are, filled over five draws per
    # seed: each entry is sign times the next random.Random(seed).randint.
    from nmfrigid.realize import _sampler

    free = [(k, -1 if k % 3 == 0 else 1) for k in range(1, 60, 2)]
    for seed in range(20):
        fill = _sampler(RealizationSearchConfig(entry_low=low, entry_high=high, seed=seed))
        rng = random.Random(seed)
        for _ in range(5):
            expected = [0] * 61
            for k, sign in free:
                expected[k] = sign * rng.randint(low, high)
            assert fill([0] * 61, free) == expected


def reference_search(pattern, config):
    # The search as a plain loop: rows drawn by randint, A then B row-major,
    # accepted by the public test, rank deficient pairs passed over.
    # Returns the pair, or None, and the number of draws taken.
    rng = random.Random(config.seed)
    low, high = config.entry_low, config.entry_high
    for k in range(1, config.max_samples + 1):
        a = [[0 if zero else rng.randint(low, high) for zero in row] for row in pattern.zeros_a]
        b = [[0 if zero else rng.randint(low, high) for zero in row] for row in pattern.zeros_b]
        if is_infinitesimally_rigid(a, b):
            try:
                return FactorizationPair(RationalMatrix.from_rows(a), RationalMatrix.from_rows(b)), k
            except ValueError:
                continue
    return None, config.max_samples


@pytest.mark.parametrize("low, high", [(1, 1), (1, 2), (1, 1000)])
def test_search_matches_the_randint_reference_loop(monkeypatch, low, high):
    # The first eight table-1 representatives: the search returns the
    # reference loop's pair after as many draws.  Entries 1..1 never
    # realize one; within the budget, 1..2 realizes six and 1..1000 all.
    from nmfrigid.patterns import enumerate_patterns, table1_filters

    counts = {"draws": 0, "accepted": 0}
    count_draws(monkeypatch, counts)
    found = 0
    for index, pattern in enumerate(enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))[:8]):
        config = RealizationSearchConfig(entry_low=low, entry_high=high, max_samples=400, seed=1 + index)
        counts["draws"] = 0
        pair = realize_pattern(pattern, config)
        reference, taken = reference_search(pattern, config)
        assert counts["draws"] == taken
        assert (pair is None) is (reference is None)
        if pair is not None:
            assert (pair.a, pair.b) == (reference.a, reference.b)
            found += 1
    assert found == {1: 0, 2: 6, 1000: 8}[high]


def test_realize_fixture_pattern_matches_exactly():
    pattern = RIGID_5X5[0].pair().zero_pattern()
    pair = realize_pattern(pattern, RealizationSearchConfig(seed=1))
    assert pair is not None
    assert pair.zero_pattern() == pattern
    # Sampled entries stay inside the requested range, so no accidental zeros.
    for matrix, zeros in ((pair.a, pattern.zeros_a), (pair.b, pattern.zeros_b)):
        for i in range(matrix.rows):
            for j in range(matrix.cols):
                if not zeros[i][j]:
                    assert 1 <= matrix[i, j] <= 1000
    assert certify(pair, kruskal_budget=0).classification is Classification.INFINITESIMALLY_RIGID


def test_realize_reproducible_for_same_seed():
    pattern = RIGID_5X5[1].pair().zero_pattern()
    config = RealizationSearchConfig(seed=7, max_samples=5000)
    first = realize_pattern(pattern, config)
    second = realize_pattern(pattern, config)
    assert first is not None and second is not None
    assert first.a == second.a and first.b == second.b


def test_realize_rejects_wpoint_failures():
    with pytest.raises(ValueError, match="pair conditions"):
        realize_pattern(twelve_zero_pattern_5x7(), RealizationSearchConfig(seed=1))


def test_realize_zero_budget_returns_none():
    pattern = RIGID_5X5[0].pair().zero_pattern()
    assert realize_pattern(pattern, RealizationSearchConfig(seed=1, max_samples=0)) is None


def test_realize_rejects_zero_factor_column():
    # A column of A (or a row of B) forced zero in every slot, which no full
    # rank factor can realize; its zero mask contains the other one, so the
    # pair conditions refuse it.
    zeros_b = ((True, False, False), (False, True, False))
    column_a = ZeroPattern(3, 3, 2, ((True, False),) * 3, zeros_b)
    zeros_a = ((True, False), (False, True), (False, False))
    row_b = ZeroPattern(3, 3, 2, zeros_a, ((True, True, True), (False, False, False)))
    for pattern in (column_a, row_b):
        with pytest.raises(ValueError, match="pair conditions"):
            realize_pattern(pattern, RealizationSearchConfig(seed=1))


def test_extend_positive_keeps_certificate():
    pair = RIGID_5X5[0].pair()
    extended = extend_positive(pair, Fraction(1, 10))
    assert extended.m == pair.m + pair.r
    assert extended.n == pair.n + pair.r
    base = certify(pair, kruskal_budget=0)
    after = certify(extended, kruskal_budget=0)
    assert (base.generator_count, base.span_rank, base.lineality_dim, base.dim_w) == (
        after.generator_count, after.span_rank, after.lineality_dim, after.dim_w
    )
    assert base.classification is after.classification
    # Product extends the original block.
    prod = matmul(extended.a, extended.b)
    orig = matmul(pair.a, pair.b)
    for i in range(pair.m):
        for j in range(pair.n):
            assert prod[i, j] == orig[i, j]


def test_extend_positive_appends_the_unit_blocks_plus_delta():
    # Row i appended to A is e_i with delta elsewhere; column j appended to
    # B is e_j plus delta everywhere.
    pair, delta = RIGID_5X5[0].pair(), Fraction(1, 10)
    extended = extend_positive(pair, delta)
    r = pair.r
    for i in range(r):
        assert extended.a.row(pair.m + i) == tuple(Fraction(1) if j == i else delta for j in range(r))
        assert extended.b.row(i)[pair.n :] == tuple(1 + delta if j == i else delta for j in range(r))


def test_extend_positive_keeps_interior_class():
    positive = certify_interior_pair()
    extended = extend_positive(positive, Fraction(1, 2))
    assert certify(extended, kruskal_budget=0).classification is Classification.INTERIOR_CERTIFIED


def certify_interior_pair():
    from nmfrigid.rigidity import FactorizationPair

    return FactorizationPair(
        RationalMatrix.from_rows([[1, 2], [3, 4]]),
        RationalMatrix.from_rows([[1, 1], [2, 1]]),
    )


def test_extend_positive_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        extend_positive(RIGID_5X5[0].pair(), Fraction(0))


def test_lift_demo_pair():
    pair = lift_demo_pair()
    assert certify(pair, kruskal_budget=0).classification is Classification.INFINITESIMALLY_RIGID
    lifted = lift_partially_rigid(pair)
    cert = certify(lifted, kruskal_budget=0)
    assert cert.classification is Classification.PARTIALLY_INFINITESIMALLY_RIGID
    assert cert.v_support() == ((0, 3), (1, 3), (2, 3))
    # Shape of the construction: one positive column on A, a zero row and a
    # positive column on B.
    assert lifted.a.rows == pair.m and lifted.a.cols == pair.r + 1
    assert lifted.b.rows == pair.r + 1 and lifted.b.cols == pair.n + 1
    assert all(lifted.a[i, pair.r] > 0 for i in range(pair.m))
    assert all(lifted.b[pair.r, j] == 0 for j in range(pair.n))
    assert all(lifted.b[i, pair.n] > 0 for i in range(pair.r + 1))


def test_published_lift_certifies_like_ours():
    from nmfrigid.rigidity import FactorizationPair

    published = FactorizationPair(
        RationalMatrix.from_rows(LIFT_DEMO_LIFTED_A),
        RationalMatrix.from_rows(LIFT_DEMO_LIFTED_B),
    )
    ours = lift_partially_rigid(lift_demo_pair())
    cert_pub = certify(published, kruskal_budget=0)
    cert_ours = certify(ours, kruskal_budget=0)
    assert cert_pub.classification is cert_ours.classification
    assert cert_pub.v_support() == cert_ours.v_support()
    assert cert_pub.dim_w == cert_ours.dim_w


def test_lift_product_block_equality():
    pair = lift_demo_pair()
    lifted = lift_partially_rigid(pair)
    orig = matmul(pair.a, pair.b)
    prod = matmul(lifted.a, lifted.b)
    # The new row of B is zero on the original columns, so the original
    # block of the product is reproduced exactly.
    for i in range(pair.m):
        for j in range(pair.n):
            assert prod[i, j] == orig[i, j]


def test_lift_adds_exactly_the_zero_row_zeros():
    for base in (lift_demo_pair(), RIGID_5X5[0].pair()):
        lifted = lift_partially_rigid(base)
        base_zeros = sum(1 for x in base.a.data if x == 0) + sum(
            1 for x in base.b.data if x == 0
        )
        lifted_zeros = sum(1 for x in lifted.a.data if x == 0) + sum(
            1 for x in lifted.b.data if x == 0
        )
        assert lifted_zeros == base_zeros + base.n


def test_lift_of_each_fixture():
    for fixture in RIGID_5X5:
        lifted = lift_partially_rigid(fixture.pair())
        cert = certify(lifted, kruskal_budget=0)
        assert cert.classification is Classification.PARTIALLY_INFINITESIMALLY_RIGID
        assert cert.v_support() == ((0, 4), (1, 4), (2, 4), (3, 4))


def _weight_schedule_lift(pair):
    # Reference: the lift as it was solved before the weights became free,
    # one LP per fixed weighting of B's columns (the plain column sum first,
    # then the weights 1..r cycled).  Returns the lift and the attempt that
    # found it, or (None, None).
    cert = certify(pair, kruskal_budget=0)
    r, m, n = pair.r, pair.m, pair.n
    u_rows = {}
    for coeff, src in zip(cert.relint_witness, build_dual_generators(pair).sources):
        if src.factor == "A":
            u_rows.setdefault(src.row, [Fraction(0)] * r)[src.col] = coeff
    solve_rows = sorted(u_rows)
    b_cols = [pair.b.column(l) for l in range(n)]
    schedules = [[1] * n] + [[(l + k) % r + 1 for l in range(n)] for k in range(1, r + 1)]
    for attempt, weights in enumerate(schedules):
        w = [sum(weights[l] * b_cols[l][i] for l in range(n)) for i in range(r)]
        columns = [tuple(u_rows[i]) for i in solve_rows] + [tuple(-x for x in w)]
        solution = lp_feasible(
            RationalMatrix.from_columns(columns, r), (Fraction(0),) * r, (Fraction(1),) * len(columns)
        )
        if solution is None:
            continue
        new_col = dict(zip(solve_rows, solution))
        a = RationalMatrix.from_rows(
            [list(pair.a.row(i)) + [new_col.get(i, Fraction(1))] for i in range(m)]
        )
        if rank(a) != r + 1:
            continue
        b_rows = [list(pair.b.row(i)) + [1] for i in range(r)] + [[0] * n + [1]]
        return FactorizationPair(a, RationalMatrix.from_rows(b_rows)), attempt
    return None, None


def _symmetry_image(pair, rng):
    # Transposition (square products), row, inner and column permutations,
    # and positive diagonal scalings D_row A D_in, D_in^-1 B D_col.
    a = [list(pair.a.row(i)) for i in range(pair.m)]
    b = [list(pair.b.row(i)) for i in range(pair.r)]
    if pair.m == pair.n and rng.random() < 0.5:
        a, b = [list(col) for col in zip(*b)], [list(col) for col in zip(*a)]
    m, r, n = len(a), len(b), len(b[0])
    pr, pi, pc = (rng.sample(range(k), k) for k in (m, r, n))
    scale = lambda: Fraction(rng.choice((1, 1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))  # noqa: E731
    d_row, d_in, d_col = ([scale() for _ in range(k)] for k in (m, r, n))
    return FactorizationPair(
        RationalMatrix.from_rows(
            [[a[pr[i]][pi[j]] * d_row[i] * d_in[j] for j in range(r)] for i in range(m)]
        ),
        RationalMatrix.from_rows(
            [[b[pi[i]][pc[j]] / d_in[i] * d_col[j] for j in range(n)] for i in range(r)]
        ),
    )


def test_free_weight_lift_extends_the_weight_schedules(monkeypatch):
    # Wherever some fixed weighting lifts, the one LP over free weights
    # lifts too; where the plain column sum lifted, the lift is the same.
    from nmfrigid import realize

    calls = []

    def recording_lp(*args):
        calls.append(args)
        return lp_feasible(*args)

    monkeypatch.setattr(realize, "lp_feasible", recording_lp)
    rng = random.Random(1)
    corpus = [fx.pair() for fx in RIGID_5X5] + [lift_demo_pair()]
    corpus += [_symmetry_image(fx.pair(), rng) for fx in RIGID_5X5 for _ in range(8)]
    outcomes = []
    for pair in corpus:
        reference, attempt = _weight_schedule_lift(pair)
        calls.clear()
        try:
            lifted = lift_partially_rigid(pair)
        except LiftInfeasibleError:
            lifted = None
        assert len(calls) == 1
        assert reference is None or lifted is not None
        if attempt == 0:
            assert (lifted.a, lifted.b) == (reference.a, reference.b)
        outcomes.append((attempt, lifted is not None))
    # The corpus reaches the plain column sum, the later weightings and
    # inputs that no fixed weighting lifts.
    assert {(0, True), (None, True)} <= set(outcomes)
    assert any(attempt not in (0, None) for attempt, _ in outcomes)


def test_lift_rejects_non_rigid_input():
    with pytest.raises(ValueError, match="undetermined"):
        lift_partially_rigid(circulant_pair())


@pytest.mark.parametrize("field", ["entry_low", "entry_high", "max_samples"])
def test_config_quotes_long_values_briefly(field):
    with pytest.raises(ValueError) as exc:
        RealizationSearchConfig(**{field: "9" * 5000})
    assert str(exc.value) == f"{field} must be an int, got {'9' * 40!r}..."
