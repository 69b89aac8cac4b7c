"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is exact rational arithmetic; runtime limits are the
stated budgets.
"""

import itertools
import random
import time
from fractions import Fraction

from nmfrigid.cone import lineality_dimension, verify_witness
from nmfrigid.cpr import SymmetricFactor, certify_cp
from nmfrigid.exactlin import RationalMatrix, matmul, rank
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.patterns import (
    PatternFilter,
    ZeroPattern,
    canonical_form,
    check_zero_rectangles,
    enumerate_patterns,
    table1_filters,
)
from nmfrigid.realize import RealizationSearchConfig, lift_partially_rigid, realize_pattern
from nmfrigid.rigidity import (
    Classification,
    FactorizationPair,
    build_dual_generators,
    certify,
    kruskal_rank_of_columns,
    necessary_conditions_report,
)
from reference_data import (
    all_applicable_pass,
    CIRCULANT_3X3_M,
    circulant_pair,
    lift_demo_lifted_pair,
    lift_demo_pair,
    rectangle_violation_pattern_6x5,
    unique_7_zero_pattern_r3,
)
from test_exactlin import identity_matrix
from test_rigidity import pair_from, rand_pair, strictly_positive


def report(line: str) -> None:
    print(f"[acceptance] {line}")


def test_criterion_1_fixture_suite():
    start = time.time()
    for fixture in RIGID_5X5:
        pair = fixture.pair()
        assert matmul(pair.a, pair.b) == fixture.product_matrix(), fixture.name
        cert = certify(pair)
        assert cert.classification is Classification.INFINITESIMALLY_RIGID, fixture.name
        assert cert.dim_w == 4, fixture.name
        assert cert.kruskal_rank == 12, fixture.name
    elapsed = time.time() - start
    assert elapsed < 10.0, f"fixture suite took {elapsed:.1f}s, budget 10s"
    report(f"criterion 1 PASS: 15/15 fixtures exact product, rigid, dim W 4, K-rank 12 ({elapsed:.1f}s)")


def test_criterion_2_table_counts_mandatory():
    start = time.time()
    counts = {}
    for m, n, want in ((5, 5, 15), (6, 5, 26)):
        got = len(enumerate_patterns(m, n, 4, 13, table1_filters(m, n)))
        counts[(m, n)] = got
        assert got == want, f"{m}x{n}: got {got}, want {want}"
    # Both published readings of the 5x5 count must agree: the pair/count
    # conditions alone and the full tabulated condition set.
    theorem_only = enumerate_patterns(
        5, 5, 4, 13,
        {PatternFilter.WPOINT, PatternFilter.ROW_COVERAGE_A, PatternFilter.POSITIVE_PRODUCT},
    )
    assert len(theorem_only) == 15, f"theorem-only 5x5 reading gave {len(theorem_only)}"
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(f"criterion 2 PASS: 5x5 -> 15, 6x5 -> 26, both 5x5 readings agree ({elapsed:.1f}s)")


def test_criterion_2_table_counts_larger_shapes():
    start = time.time()
    for m, n, want in ((6, 6, 14), (7, 5, 24), (7, 6, 11), (8, 5, 10), (9, 5, 2)):
        got = len(enumerate_patterns(m, n, 4, 13, table1_filters(m, n)))
        assert got == want, f"{m}x{n}: got {got}, want {want}"
    elapsed = time.time() - start
    report(f"criterion 2 (larger shapes) PASS: 6x6 14, 7x5 24, 7x6 11, 8x5 10, 9x5 2 ({elapsed:.1f}s)")


def test_criterion_3_r3_uniqueness():
    start = time.time()
    reps = enumerate_patterns(4, 3, 3, 7, {PatternFilter.WPOINT})
    assert len(reps) == 1
    assert reps[0] == canonical_form(unique_7_zero_pattern_r3())
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(f"criterion 3 PASS: unique 7-zero rank-3 pattern reproduced ({elapsed:.2f}s)")


def test_criterion_4_zero_rectangle_failure():
    reps = enumerate_patterns(6, 5, 4, 13, table1_filters(6, 5))
    rejected = [p for p in reps if check_zero_rectangles(p) is not None]
    assert len(rejected) == 1
    assert rejected[0] == canonical_form(rectangle_violation_pattern_6x5())
    report("criterion 4 PASS: exactly one 6x5 representative fails the rectangle test, the published one")


def test_criterion_5_circulant_dims():
    pair = circulant_pair()
    assert pair.product() == RationalMatrix.from_rows(CIRCULANT_3X3_M)
    cert = certify(pair)
    assert cert.span_rank == 5
    assert cert.lineality_dim == 5
    assert cert.dim_w == 4
    assert cert.classification is not Classification.INFINITESIMALLY_RIGID
    report("criterion 5 PASS: circulant example has span 5, lineality 5, dim W 4, not rigid")


def test_criterion_6_partially_rigid_lift():
    base = certify(lift_demo_pair(), kruskal_budget=0)
    assert base.classification is Classification.INFINITESIMALLY_RIGID

    published = certify(lift_demo_lifted_pair(), kruskal_budget=0)
    assert published.classification is Classification.PARTIALLY_INFINITESIMALLY_RIGID
    # Entries (1,4), (2,4), (3,4) in 1-based terms.
    assert published.v_support() == ((0, 3), (1, 3), (2, 3))

    ours = certify(lift_partially_rigid(lift_demo_pair()), kruskal_budget=0)
    assert ours.classification is published.classification
    assert ours.v_support() == published.v_support()
    assert ours.dim_w == published.dim_w
    report("criterion 6 PASS: published lift and constructed lift both partially rigid, V on (1,4),(2,4),(3,4)")


def test_criterion_7_realization_search():
    start = time.time()
    reps = enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))
    assert len(reps) == 15
    # Seed 1 was pinned once found; the search is deterministic from here on.
    for idx, pattern in enumerate(reps):
        config = RealizationSearchConfig(entry_low=1, entry_high=1000, max_samples=10000, seed=1)
        pair = realize_pattern(pattern, config)
        assert pair is not None, f"pattern {idx} found no realization"
        assert pair.zero_pattern() == pattern
    elapsed = time.time() - start
    assert elapsed < 300.0, f"realization search took {elapsed:.1f}s, budget 300s"
    report(f"criterion 7 PASS: rigid realizations for all 15 patterns with seed 1 ({elapsed:.1f}s)")


def test_criterion_8_property_suites():
    rng = random.Random(20260810)
    n_instances = 200

    # Invariance of certificates under scaling, permutation, transposition.
    for _ in range(n_instances):
        pair = rand_pair(rng)
        cert = certify(pair, kruskal_budget=0)

        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(pair.r)]
        scaled = pair_from(
            [[pair.a[i, j] * scales[j] for j in range(pair.r)] for i in range(pair.m)],
            [[pair.b[i, j] / scales[i] for j in range(pair.n)] for i in range(pair.r)],
        )
        assert certify(scaled, kruskal_budget=0).classification is cert.classification

        rows, cols, inner = list(range(pair.m)), list(range(pair.n)), list(range(pair.r))
        rng.shuffle(rows), rng.shuffle(cols), rng.shuffle(inner)
        permuted = pair_from(
            [[pair.a[rows[i], inner[j]] for j in range(pair.r)] for i in range(pair.m)],
            [[pair.b[inner[i], cols[j]] for j in range(pair.n)] for i in range(pair.r)],
        )
        pcert = certify(permuted, kruskal_budget=0)
        assert (pcert.span_rank, pcert.lineality_dim, pcert.dim_w, pcert.classification) == (
            cert.span_rank, cert.lineality_dim, cert.dim_w, cert.classification
        )

        swapped = FactorizationPair(pair.b.transpose(), pair.a.transpose())
        assert certify(swapped, kruskal_budget=0).classification is cert.classification
    report("criterion 8a PASS: scaling/permutation/transpose invariance on 200 instances")

    # Duality: lineality of the generator cone plus dim W equals r^2, and
    # any witness re-verifies by plain arithmetic.
    witnesses = 0
    for _ in range(n_instances):
        pair = rand_pair(rng)
        gens = build_dual_generators(pair)
        lin = lineality_dimension(gens.matrix())
        cert = certify(pair, kruskal_budget=0)
        assert lin + cert.dim_w == pair.r * pair.r
        assert cert.lineality_dim == lin
        if cert.relint_witness is not None:
            assert verify_witness(gens.matrix(), cert.relint_witness)
            witnesses += 1
    assert witnesses > 0
    report(f"criterion 8b PASS: duality identity and witness re-verification on 200 instances ({witnesses} witnesses)")

    # Necessary-condition consistency: rigid verdicts pass all applicable
    # conditions; rigid with the tight count forces a positive product.
    rigid_seen = 0
    for source in itertools.chain(
        (fixture.pair() for fixture in RIGID_5X5),
        (rand_pair(rng) for _ in range(n_instances)),
    ):
        cert = certify(source, kruskal_budget=0)
        if cert.classification is Classification.INFINITESIMALLY_RIGID:
            report_obj = necessary_conditions_report(source)
            assert all_applicable_pass(report_obj)
            zeros = sum(1 for x in source.a.data if x == 0) + sum(
                1 for x in source.b.data if x == 0
            )
            if zeros == source.r**2 - source.r + 1:
                assert strictly_positive(source.product())
            rigid_seen += 1
    assert rigid_seen >= 15
    report(f"criterion 8c PASS: necessary-condition consistency ({rigid_seen} rigid instances)")

    # Kruskal rank against the all-subsets oracle, up to 8 columns.
    for _ in range(n_instances):
        height = rng.randint(1, 4)
        count = rng.randint(0, 8)
        cols = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(height)) for _ in range(count)
        )
        expected = 0
        for k in range(1, count + 1):
            if all(
                rank(RationalMatrix.from_columns([cols[i] for i in sub], height)) == k
                for sub in itertools.combinations(range(count), k)
            ):
                expected = k
        assert kruskal_rank_of_columns(cols, 10**6) == expected
    report("criterion 8d PASS: Kruskal rank matches the all-subsets oracle on 200 instances")

    # Cone membership against the independent-subsets oracle in R^3.
    from test_cone import member, oracle_member

    for _ in range(n_instances):
        gens = tuple(
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
            for _ in range(rng.randint(0, 6))
        )
        cone = RationalMatrix.from_columns(gens, 3)
        probe = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert member(cone, probe) == oracle_member(cone, probe)
    report("criterion 8e PASS: cone membership matches the small-instance oracle on 200 instances")

    # Canonical form idempotence and orbit constancy.
    from nmfrigid.patterns import PatternGroupElement

    for _ in range(n_instances):
        m = n = rng.randint(2, 4)
        r = rng.randint(2, min(3, m, n))
        while True:
            try:
                pattern = ZeroPattern(
                    m, n, r,
                    tuple(tuple(rng.random() < 0.3 for _ in range(r)) for _ in range(m)),
                    tuple(tuple(rng.random() < 0.3 for _ in range(n)) for _ in range(r)),
                )
                break
            except ValueError:
                continue
        canon = canonical_form(pattern)
        assert canonical_form(canon) == canon
        rows, cols, inner = list(range(m)), list(range(n)), list(range(r))
        rng.shuffle(rows), rng.shuffle(cols), rng.shuffle(inner)
        g = PatternGroupElement(
            tuple(rows), tuple(cols), tuple(inner), transposed=rng.random() < 0.5
        )
        assert canonical_form(g.apply(pattern)) == canon
    report("criterion 8f PASS: canonical form idempotent and orbit constant on 200 instances")

    # Completely positive identity factors are rigid for r = 2..5.
    for r in range(2, 6):
        cert = certify_cp(SymmetricFactor(identity_matrix(r)))
        assert cert.classification is Classification.INFINITESIMALLY_RIGID
        assert cert.dim_w == 0
    report("criterion 8g PASS: identity factors rigid for r = 2..5")
