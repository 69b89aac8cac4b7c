import itertools
import random
from fractions import Fraction

import pytest

from nmfrigid.cpr import (
    SymmetricFactor,
    build_skew_generators,
    certify_cp,
    cp_necessary_conditions,
    skew_coordinate_pairs,
)
from nmfrigid.exactlin import RationalMatrix
from nmfrigid.fixtures import CIRCULANT_3X3_FACTOR
from nmfrigid.patterns import canonical_symmetric_pattern, enumerate_symmetric_patterns
from nmfrigid.rigidity import Classification, FactorizationPair, build_dual_generators
from test_rigidity import strictly_positive


def factor_from(rows):
    return SymmetricFactor(RationalMatrix.from_rows(rows))


def rand_factor(rng, max_r=3, max_n=5, zero_prob=0.3, hi=9):
    while True:
        r = rng.randint(2, max_r)
        n = rng.randint(r, max_n)
        rows = [
            [0 if rng.random() < zero_prob else rng.randint(1, hi) for _ in range(r)]
            for _ in range(n)
        ]
        try:
            return factor_from(rows)
        except ValueError:
            continue


def test_factor_checks_share_messages_and_order():
    # Negative entries are reported before rank, and A before B, for the
    # pair and the symmetric factor alike.
    identity = RationalMatrix.from_rows([[1, 0], [0, 1]])
    deficient = RationalMatrix.from_rows([[1, 1], [1, 1]])
    negative = RationalMatrix.from_rows([[1, -1], [1, -1]])  # also rank 1
    cases = [
        (lambda: FactorizationPair(negative, negative), "A[0,1] = -1 is negative"),
        (lambda: FactorizationPair(deficient, negative), "B[0,1] = -1 is negative"),
        (lambda: FactorizationPair(deficient, deficient), "A has rank below 2"),
        (lambda: FactorizationPair(identity, deficient), "B has rank below 2"),
        (lambda: SymmetricFactor(negative), "A[0,1] = -1 is negative"),
        (lambda: SymmetricFactor(deficient), "A has rank below 2"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_skew_pair_order():
    assert skew_coordinate_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_identity_generators_are_signed_units():
    gens = build_skew_generators(factor_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert gens.count == 6
    pairs = skew_coordinate_pairs(3)
    by_source = {
        (s.row, s.col): v for v, s in zip(gens.vectors, gens.sources)
    }
    for (i, j), vec in by_source.items():
        if i < j:
            expected = tuple(Fraction(1) if p == (i, j) else Fraction(0) for p in pairs)
        else:
            expected = tuple(Fraction(-1) if p == (j, i) else Fraction(0) for p in pairs)
        assert vec == expected


def test_positive_factor_has_no_generators():
    gens = build_skew_generators(factor_from([[1, 2], [3, 4], [5, 6]]))
    assert gens.count == 0


def test_r1_has_empty_ambient():
    gens = build_skew_generators(factor_from([[1], [0], [2]]))
    assert gens.count == 0 and gens.ambient_dim == 0


def test_skew_generators_fold_the_pair_generators_of_the_same_zeros():
    # The zero at (i, j) of A gives the pair generator g of that zero (with
    # any B); read on skew matrices it is g[k, l] - g[l, k] at pair (k, l).
    rng = random.Random(23)
    for _ in range(60):
        factor = rand_factor(rng, max_r=4)
        r = factor.r
        pair_gens = build_dual_generators(FactorizationPair(factor.a, RationalMatrix.identity(r)))
        folded = [
            (source, tuple(g[k * r + l] - g[l * r + k] for k, l in skew_coordinate_pairs(r)))
            for g, source in zip(pair_gens.vectors, pair_gens.sources)
            if source.factor == "A"
        ]
        gens = build_skew_generators(factor)
        assert list(zip(gens.sources, gens.vectors)) == folded


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_identity_factor_is_rigid(r):
    cert = certify_cp(SymmetricFactor(RationalMatrix.identity(r)))
    assert cert.classification is Classification.INFINITESIMALLY_RIGID
    assert cert.ambient_dim == r * (r - 1) // 2
    assert cert.dim_w == 0


def test_positive_factor_not_rigid():
    cert = certify_cp(factor_from([[1, 2], [3, 4], [5, 6]]))
    assert cert.classification is Classification.NOT_RIGID
    assert cert.dim_w == 1


def test_r1_factor_rigid_vacuously():
    cert = certify_cp(factor_from([[1], [2]]))
    assert cert.classification is Classification.INFINITESIMALLY_RIGID
    assert cert.ambient_dim == 0


def test_circulant_factor_not_rigid():
    cert = certify_cp(factor_from(CIRCULANT_3X3_FACTOR))
    assert cert.classification is Classification.NOT_RIGID
    assert cert.span_rank == 2 and cert.lineality_dim == 2 and cert.dim_w == 1


def oracle_rigid_r2(factor: SymmetricFactor) -> bool:
    # For r = 2 the skew tangent space is one dimensional; the only possible
    # motions are d = +1 and d = -1 directions, so rigidity is a two-sided
    # sign check: zero at (i, 0) forces -d * a[i][1] >= 0, zero at (i, 1)
    # forces d * a[i][0] >= 0.
    a = factor.a
    feasible = []
    for d in (Fraction(1), Fraction(-1)):
        ok = True
        for i in range(a.rows):
            if a[i, 0] == 0 and -d * a[i, 1] < 0:
                ok = False
            if a[i, 1] == 0 and d * a[i, 0] < 0:
                ok = False
        feasible.append(ok)
    return not feasible[0] and not feasible[1]


def test_certify_cp_matches_r2_sign_oracle():
    rng = random.Random(31)
    for _ in range(200):
        factor = rand_factor(rng, max_r=2, max_n=4)
        got = certify_cp(factor, kruskal_budget=0).classification
        want = (
            Classification.INFINITESIMALLY_RIGID
            if oracle_rigid_r2(factor)
            else Classification.NOT_RIGID
        )
        assert got is want, factor.a


def test_row_and_column_permutations_preserve_verdicts():
    rng = random.Random(32)
    for _ in range(100):
        factor = rand_factor(rng)
        rows = list(range(factor.n))
        cols = list(range(factor.r))
        rng.shuffle(rows)
        rng.shuffle(cols)
        permuted = factor_from(
            [[factor.a[rows[i], cols[j]] for j in range(factor.r)] for i in range(factor.n)]
        )
        c1 = certify_cp(factor, kruskal_budget=0)
        c2 = certify_cp(permuted, kruskal_budget=0)
        assert (c1.classification, c1.span_rank, c1.lineality_dim, c1.dim_w) == (
            c2.classification, c2.span_rank, c2.lineality_dim, c2.dim_w
        )


def test_conditions_identity_r3():
    report = cp_necessary_conditions(factor_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    by_name = {c.name: c for c in report.conditions}
    assert by_name["zero-count"].passed
    assert by_name["boundary-closed"].passed
    assert by_name["column-coverage"].passed
    assert not by_name["column-zero-bound"].applicable  # 6 zeros, tight is 4


def test_conditions_fail_for_positive_factor():
    report = cp_necessary_conditions(factor_from([[1, 2], [3, 4], [5, 6]]))
    by_name = {c.name: c for c in report.conditions}
    assert by_name["zero-count"].passed is False


def test_conditions_column_lemma_violation():
    # Tight count for r = 3 is 4 zeros; a column holding 3 of them breaks
    # the per-column lemma.
    factor = factor_from([[0, 1, 2], [0, 2, 1], [0, 1, 1], [1, 0, 3], [2, 5, 1]])
    report = cp_necessary_conditions(factor)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["column-zero-bound"].applicable
    assert by_name["column-zero-bound"].passed is False


def test_rigid_verdicts_pass_conditions():
    rng = random.Random(33)
    seen = 0
    for _ in range(200):
        factor = rand_factor(rng)
        cert = certify_cp(factor, kruskal_budget=0)
        if cert.classification is Classification.INFINITESIMALLY_RIGID and factor.r >= 2:
            report = cp_necessary_conditions(factor)
            assert report.all_applicable_pass, factor.a
            tight = factor.r * (factor.r - 1) // 2 + 1
            zeros = sum(1 for x in factor.a.data if x == 0)
            # The positivity corollary genuinely fails at r = 2 (coordinate
            # permutations are rigid with an identity Gram matrix).
            if zeros == tight and factor.r >= 3:
                assert strictly_positive(factor.gram())
            seen += 1
    assert seen > 0


def test_cp_kruskal_identity_r2():
    # Two generators in the one-dimensional skew space: the bound is 1.
    cert = certify_cp(SymmetricFactor(RationalMatrix.identity(2)))
    assert (cert.generator_count, cert.ambient_dim) == (2, 1)
    assert cert.kruskal_rank == 1
    assert cert.kruskal_criterion is True


def test_cp_kruskal_duplicate_zero_rows():
    factor = factor_from([[0, 1, 1], [0, 1, 1], [1, 0, 2], [2, 3, 0]])
    cert = certify_cp(factor)
    assert cert.kruskal_rank == 1
    assert cert.kruskal_criterion is False


def test_cp_kruskal_vacuous_without_zeros():
    cert = certify_cp(factor_from([[1, 2], [3, 4], [5, 6]]))
    assert cert.generator_count == 0 and cert.kruskal_criterion is True


def test_canonical_symmetric_pattern_idempotent_and_orbit_constant():
    rng = random.Random(34)
    for _ in range(100):
        n, r = rng.randint(2, 4), rng.randint(2, 3)
        zeros = tuple(
            tuple(rng.random() < 0.4 for _ in range(r)) for _ in range(n)
        )
        canon = canonical_symmetric_pattern(zeros)
        assert canonical_symmetric_pattern(canon) == canon
        rows = list(range(n))
        cols = list(range(r))
        rng.shuffle(rows)
        rng.shuffle(cols)
        image = tuple(tuple(zeros[rows[i]][cols[j]] for j in range(r)) for i in range(n))
        assert canonical_symmetric_pattern(image) == canon


def test_enumerate_symmetric_small():
    # r = 2, tight count is 2: the only separated pattern up to symmetry
    # puts the two zeros in different rows and different columns.
    reps = enumerate_symmetric_patterns(2, 2, 2, require_pairs=True)
    assert len(reps) == 1
    assert reps[0] in (
        ((True, False), (False, True)),
        ((False, True), (True, False)),
    )


def test_fixture_factors_match_lp_reference_across_kernel_dimensions():
    # A and B^T of every fixture as symmetric factors cover kernel
    # dimensions 0 to 3, so both the kernel shortcut (<= 1) and the LP path
    # (>= 2) run here.
    from nmfrigid.cone import lineality_dimension, lp_feasible
    from nmfrigid.exactlin import nullspace_basis, zero_vector
    from nmfrigid.fixtures import RIGID_5X5

    dims = {}
    for fx in RIGID_5X5:
        pair = fx.pair()
        for a in (pair.a, pair.b.transpose()):
            factor = SymmetricFactor(a)
            gens = build_skew_generators(factor)
            d = len(nullspace_basis(gens.matrix()))
            dims[d] = dims.get(d, 0) + 1
            cert = certify_cp(factor, kruskal_budget=0)
            assert cert.lineality_dim == lineality_dimension(gens.matrix())
            reference = lp_feasible(
                gens.matrix(), zero_vector(gens.ambient_dim), (Fraction(1),) * gens.count
            )
            assert cert.relint_witness == reference
    assert dims == {0: 15, 1: 4, 2: 8, 3: 3}


# ---------------------------------------------------------------------------
# The CP pattern routines against their former stand-alone versions
# ---------------------------------------------------------------------------

def _reference_canonical(zeros_a):
    # Rows packed with column 0 most significant, sorted, minimized over
    # column permutations.
    n = len(zeros_a)
    r = len(zeros_a[0]) if n else 0
    best = min(
        tuple(sorted(
            sum((1 if zeros_a[i][perm[j]] else 0) << (r - 1 - j) for j in range(r))
            for i in range(n)
        ))
        for perm in itertools.permutations(range(r))
    )
    return tuple(tuple(bool((best[i] >> (r - 1 - j)) & 1) for j in range(r)) for i in range(n))


def _reference_enumerate(n, r, zeros, require_pairs, column_bound):
    # Recursive multiset generation of the columns of A, filtered and
    # canonicalized one complete choice at a time.
    cap = min(n, r - 1 if column_bound else n)
    masks = sorted(
        (m for m in range(1 << n) if m.bit_count() <= cap), key=lambda m: (m.bit_count(), m)
    )
    found = set()
    chosen = []

    def rec(start, total):
        if len(chosen) == r:
            if total != zeros:
                return
            if require_pairs and any(
                chosen[i] & ~chosen[j] == 0 for i in range(r) for j in range(r) if i != j
            ):
                return
            acc = (1 << n) - 1
            for c in chosen:
                acc &= c
            if acc:
                return
            zeros_a = tuple(tuple(bool((chosen[j] >> i) & 1) for j in range(r)) for i in range(n))
            found.add(_reference_canonical(zeros_a))
            return
        for idx in range(start, len(masks)):
            pc = masks[idx].bit_count()
            if total + (r - len(chosen)) * pc > zeros:
                break
            chosen.append(masks[idx])
            rec(idx, total + pc)
            chosen.pop()

    rec(0, 0)
    return sorted(found)


def _reference_rectangles(rows):
    # First alpha, in increasing mask order, with more than r - |alpha|
    # rows of A zero on all of alpha.
    r = len(rows[0])
    row_masks = [sum(1 << j for j in range(r) if row[j] == 0) for row in rows]
    for alpha in range(1, 1 << r):
        k = sum(1 for mask in row_masks if mask & alpha == alpha)
        if k > r - alpha.bit_count():
            return False, f"{k} rows zero on columns {tuple(j for j in range(r) if (alpha >> j) & 1)}"
    return True, "no k x |alpha| zero block with k > r - |alpha| (tight zero count)"


def test_enumerate_symmetric_patterns_matches_reference_grid():
    settings = 0
    for n in range(1, 5):
        for r in range(1, 5):
            for zeros in range(min(10, n * r) + 1):
                for require_pairs in (False, True):
                    for column_bound in (False, True):
                        settings += 1
                        if r > n:  # no n x r factor has rank r
                            with pytest.raises(ValueError, match="exceeds"):
                                enumerate_symmetric_patterns(
                                    n, r, zeros, require_pairs, column_bound
                                )
                            continue
                        assert enumerate_symmetric_patterns(
                            n, r, zeros, require_pairs, column_bound
                        ) == _reference_enumerate(n, r, zeros, require_pairs, column_bound)
    assert settings == 424


def test_canonical_symmetric_pattern_matches_reference():
    rng = random.Random(35)
    for _ in range(500):
        n, r = rng.randint(1, 6), rng.randint(1, 4)
        zeros = tuple(tuple(rng.random() < 0.4 for _ in range(r)) for _ in range(n))
        assert canonical_symmetric_pattern(zeros) == _reference_canonical(zeros)


def test_cp_zero_rectangles_matches_reference_at_tight_count():
    # Factors with exactly r(r-1)/2 + 1 zeros, so the check always applies.
    rng = random.Random(36)
    violations = 0
    for _ in range(300):
        r = rng.randint(2, 4)
        n = rng.randint(r, 6)
        while True:
            cells = rng.sample(range(n * r), r * (r - 1) // 2 + 1)
            rows = [
                [0 if i * r + j in cells else rng.randint(1, 9) for j in range(r)]
                for i in range(n)
            ]
            try:
                factor = factor_from(rows)
                break
            except ValueError:
                continue
        (cond,) = [c for c in cp_necessary_conditions(factor).conditions if c.name == "zero-rectangles"]
        assert cond.applicable
        assert (cond.passed, cond.detail) == _reference_rectangles(rows)
        violations += not cond.passed
    assert 0 < violations < 300


def test_cp_zero_rectangles_detail_names_first_block():
    # r = 3, tight count 4: two rows zero on columns {0, 1} exceed r - 2 = 1,
    # while no single column carries more than r - 1 = 2 zero rows.
    report = cp_necessary_conditions(factor_from([[0, 0, 1], [0, 0, 2], [1, 2, 1], [2, 1, 1]]))
    (cond,) = [c for c in report.conditions if c.name == "zero-rectangles"]
    assert (cond.applicable, cond.passed) == (True, False)
    assert cond.detail == "2 rows zero on columns (0, 1)"


# ---------------------------------------------------------------------------
# The generators carry their kind; the core decides both kinds by one rule
# ---------------------------------------------------------------------------

def test_builders_record_the_kind_and_build_one_matrix():
    from nmfrigid.fixtures import RIGID_5X5

    pair = RIGID_5X5[0].pair()
    pair_gens = build_dual_generators(pair)
    skew_gens = build_skew_generators(SymmetricFactor(pair.a))
    assert (pair_gens.symmetric, skew_gens.symmetric) == (False, True)
    for gens in (pair_gens, skew_gens):
        matrix = gens.matrix()
        assert matrix is gens.matrix()
        assert (matrix.rows, matrix.cols) == (gens.ambient_dim, gens.count)
        assert [matrix.column(j) for j in range(gens.count)] == list(gens.vectors)


def test_certify_cp_reports_only_the_two_symmetric_classes():
    # Without trivial motions a factor is rigid or not rigid: the pair-only
    # classes (interior, partial, undetermined) never appear, and the
    # certificate is marked symmetric.
    from nmfrigid.fixtures import RIGID_5X5

    factors = [SymmetricFactor(a) for fx in RIGID_5X5 for a in (fx.pair().a, fx.pair().b.transpose())]
    rng = random.Random(19)
    factors += [rand_factor(rng, max_r=4, max_n=6, zero_prob=rng.choice([0.2, 0.4])) for _ in range(150)]
    seen = set()
    for factor in factors:
        cert = certify_cp(factor, kruskal_budget=0)
        assert cert.symmetric
        rigid = cert.lineality_dim == cert.span_rank == cert.ambient_dim and cert.relint_witness is not None
        expected = Classification.INFINITESIMALLY_RIGID if rigid else Classification.NOT_RIGID
        assert cert.classification is expected
        seen.add(expected)
    assert seen == {Classification.INFINITESIMALLY_RIGID, Classification.NOT_RIGID}
