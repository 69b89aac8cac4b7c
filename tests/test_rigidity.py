import hashlib
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from nmfrigid.cpr import SymmetricFactor, build_skew_generators
from nmfrigid.exactlin import RationalMatrix, _integer_rows, integer_kernel, integer_multiple, matmul, nullspace_basis, rank
from nmfrigid.fixtures import RIGID_5X5, circulant_pair, lift_demo_lifted_pair
from nmfrigid.rigidity import (
    Classification,
    FactorizationPair,
    _squares_to_zero,
    _zero_diagonal_slice_basis,
    build_dual_generators,
    certify,
    is_infinitesimally_rigid,
    kruskal_rank_of_columns,
    necessary_conditions_report,
)
from test_exactlin import identity_matrix, zero_matrix
from test_patterns import TABLE1_SHAPES


def pair_from(a_rows, b_rows):
    return FactorizationPair(
        RationalMatrix.from_rows(a_rows), RationalMatrix.from_rows(b_rows)
    )


def rand_pair(rng, max_r=3, max_outer=4, zero_prob=0.35, hi=9):
    while True:
        r = rng.randint(2, max_r)
        m = rng.randint(r, max_outer)
        n = rng.randint(r, max_outer)
        a = [
            [0 if rng.random() < zero_prob else rng.randint(1, hi) for _ in range(r)]
            for _ in range(m)
        ]
        b = [
            [0 if rng.random() < zero_prob else rng.randint(1, hi) for _ in range(n)]
            for _ in range(r)
        ]
        try:
            return pair_from(a, b)
        except ValueError:
            continue


def seeded_wide_pair(rng, r):
    """A 2r x r by r x 2r pair with r^2 + 1 zeros at seeded places among
    its 4r^2 entries and entries from 1 to 9 elsewhere."""
    while True:
        zeros = set(rng.sample(range(4 * r * r), r * r + 1))
        entries = [0 if k in zeros else rng.randint(1, 9) for k in range(4 * r * r)]
        a = [entries[i * r : (i + 1) * r] for i in range(2 * r)]
        b = [entries[2 * r * r + i * 2 * r : 2 * r * r + (i + 1) * 2 * r] for i in range(r)]
        try:
            return pair_from(a, b)
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# build_dual_generators
# ---------------------------------------------------------------------------

def test_circulant_generators_match_known_vectors():
    gens = build_dual_generators(circulant_pair())
    assert gens.count == 6
    expect = [
        (0, 0, 0, 1, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1, 0, 0, 0),
        (0, -1, -1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, -1, 0, -1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, -1, -1, 0),
    ]
    assert [tuple(int(x) for x in v) for v in gens.vectors] == expect
    assert [(s.factor, s.row, s.col) for s in gens.sources] == [
        ("A", 0, 0), ("A", 1, 1), ("A", 2, 2),
        ("B", 0, 0), ("B", 1, 1), ("B", 2, 2),
    ]


def generator_columns(a_rows, b_cols, r, coords):
    # Reference: the generator of each zero over the (k, l) motion
    # coordinates `coords`, with its source ("A" or "B", i, j): A-zeros
    # row-major, then B-zeros by row of B.  A zero at (i, j) of A has entry
    # A[i, k] at (k, j), one of B has -B[l, j] at (i, l); the other entries
    # are the zero itself, so the vectors hold the type of the input entries.
    columns, sources = [], []
    for i, row in enumerate(a_rows):
        for j in range(r):
            if row[j] == 0:
                zero = row[j]
                columns.append([row[k] if l == j else zero for k, l in coords])
                sources.append(("A", i, j))
    for i in range(r):
        for j, col in enumerate(b_cols):
            if col[i] == 0:
                zero = col[i]
                columns.append([-col[l] if k == i else zero for k, l in coords])
                sources.append(("B", i, j))
    return columns, sources


def reference_generators(subject):
    # (vectors, sources) of a pair over all r^2 coordinates, or of a
    # symmetric factor over the skew pairs: the pair generator g of each
    # zero of A read at each pair (k, l) as g[k, l] - g[l, k].
    from nmfrigid.cpr import skew_coordinate_pairs

    r = subject.r
    if isinstance(subject, SymmetricFactor):
        pairs = skew_coordinate_pairs(r)
        coords = [*pairs, *[(l, k) for k, l in pairs]]
        columns, sources = generator_columns(subject.a.row_list() if r >= 2 else (), (), r, coords)
        h = len(pairs)
        return [tuple(x - y for x, y in zip(g[:h], g[h:])) for g in columns], sources
    coords = [(k, l) for k in range(r) for l in range(r)]
    columns, sources = generator_columns(subject.a.row_list(), subject.b.transpose().row_list(), r, coords)
    return [tuple(g) for g in columns], sources


def assert_build_matches_reference(subject):
    # The Fraction views equal the reference generators; each integer column
    # is its view over the motion coordinates (no diagonal for a pair)
    # times its scale, the lcm of the view's denominators, which are those
    # of the zero's row of A or column of B.
    symmetric = isinstance(subject, SymmetricFactor)
    gens = (build_skew_generators if symmetric else build_dual_generators)(subject)
    vectors, sources = reference_generators(subject)
    assert gens.vectors == tuple(vectors)
    assert [(s.factor, s.row, s.col) for s in gens.sources] == sources
    assert len(gens.columns) == len(gens.scales) == gens.count
    r = gens.r
    for column, scale, vec in zip(gens.columns, gens.scales, vectors):
        motion = vec if symmetric else [x for k, x in enumerate(vec) if k % (r + 1)]
        assert scale == lcm(*[x.denominator for x in vec])
        assert all(type(x) is int for x in column)
        assert list(column) == [x * scale for x in motion]
    return gens


def test_integer_build_matches_the_reference_generators():
    rng = random.Random(29)
    pairs, factors = [], []
    for fx in RIGID_5X5:
        pair = fx.pair()
        pairs += [pair, rationally_scaled_pair(pair, rng), *twelve_zero_variants(pair)]
        for a in (pair.a, pair.b.transpose()):
            factors += [SymmetricFactor(a), rationally_scaled_factor(a, rng)]
    for pair in (lift_demo_lifted_pair(), pair_from([[0, 3], [4, 0]], [[9, 0], [0, 8]])):
        pairs += [pair, rationally_scaled_pair(pair, rng)]
    wide = random.Random(6)
    pairs += [rationally_scaled_pair(seeded_wide_pair(wide, 6), rng) for _ in range(3)]
    assert (len(pairs), len(factors)) == (15 * 15 + 4 + 3, 60)
    scales = set()
    for subject in pairs + factors:
        scales.update(assert_build_matches_reference(subject).scales)
    assert 1 in scales and len(scales) > 20


def test_each_factor_is_cleared_once(monkeypatch):
    # Building a pair clears each row of A and column of B once, a CP factor
    # each row of A; certification, the generators (built twice), the
    # condition reports and the zero pattern read that form and clear none.
    from nmfrigid import rigidity
    from nmfrigid.cpr import certify_cp, cp_necessary_conditions

    rng = random.Random(29)
    base = RIGID_5X5[0].pair()
    clears = []
    clear = rigidity.integer_multiple
    monkeypatch.setattr(rigidity, "integer_multiple", lambda v: clears.append(v) or clear(v))
    pair = rationally_scaled_pair(base, rng)
    assert len(clears) == pair.m + pair.n
    certify(pair)
    gens = build_dual_generators(pair)
    assert build_dual_generators(pair) == gens and set(gens.scales) != {1}
    necessary_conditions_report(pair)
    pair.zero_pattern()
    assert len(clears) == pair.m + pair.n

    del clears[:]
    factor = rationally_scaled_factor(base.a, rng)
    assert len(clears) == factor.n
    certify_cp(factor)
    gens = build_skew_generators(factor)
    assert build_skew_generators(factor) == gens and set(gens.scales) != {1}
    cp_necessary_conditions(factor)
    assert len(clears) == factor.n


def test_positive_pair_has_no_generators():
    pair = pair_from([[1, 2], [3, 4], [5, 6]], [[1, 1, 1], [2, 1, 3]])
    assert build_dual_generators(pair).count == 0


def test_fixture_one_has_thirteen_generators():
    assert build_dual_generators(RIGID_5X5[0].pair()).count == 13


def test_generators_have_zero_diagonal():
    rng = random.Random(11)
    for _ in range(50):
        pair = rand_pair(rng)
        gens = build_dual_generators(pair)
        r = pair.r
        for v in gens.vectors:
            assert all(v[d * r + d] == 0 for d in range(r))


def test_builder_vectors_hold_only_fractions():
    # Int rows become Fractions in the matrices, and every generator entry,
    # the zero ones included, is read from them.
    rng = random.Random(5)
    for _ in range(40):
        pair = rand_pair(rng, max_r=4)
        for gens in (build_dual_generators(pair), build_skew_generators(SymmetricFactor(pair.a))):
            assert all(type(x) is Fraction for vec in gens.vectors for x in vec)


def test_negative_entry_rejected_with_location():
    with pytest.raises(ValueError, match=r"B\[1,0\]"):
        pair_from([[1, 2], [3, 4]], [[1, 1], [-1, 1]])


def test_rank_deficient_rejected():
    with pytest.raises(ValueError, match="rank"):
        pair_from([[1, 1], [2, 2]], [[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# certify / dim_w
# ---------------------------------------------------------------------------

def test_certify_fixture_one():
    cert = certify(RIGID_5X5[0].pair())
    assert cert.classification is Classification.INFINITESIMALLY_RIGID
    assert cert.span_rank == cert.lineality_dim == 12
    assert cert.dim_w == 4
    assert cert.kruskal_rank == 12


def test_certify_circulant_is_undetermined_with_recorded_dims():
    cert = certify(circulant_pair())
    assert cert.span_rank == cert.lineality_dim == 5
    assert cert.dim_w == 4
    assert cert.classification is Classification.UNDETERMINED


def test_certify_positive_pair_is_interior():
    pair = pair_from([[1, 2], [3, 4]], [[1, 1], [2, 1]])
    cert = certify(pair)
    assert cert.classification is Classification.INTERIOR_CERTIFIED
    assert cert.dim_w == 4 and cert.generator_count == 0
    # The cone {0} is a linear space: its witness is (), which is not None.
    assert cert.relint_witness == () and cert.relint_witness is not None


def test_certify_digest_on_seeded_r6_pairs():
    # Each generator matrix is 36 x 37 with a kernel of dimension 7, so the
    # relint LP, and the lineality LPs where it finds no witness, run on it.
    rng = random.Random(6)
    certs = [certify(seeded_wide_pair(rng, 6), kruskal_budget=0) for _ in range(3)]
    assert [c.classification for c in certs] == [
        Classification.UNDETERMINED,
        Classification.INTERIOR_CERTIFIED,
        Classification.UNDETERMINED,
    ]
    digest = hashlib.sha256("".join(map(repr, certs)).encode()).hexdigest()
    assert digest == "a7c8e8e1773c27d0e73047f11bdc552c5c4930cc19e85f2d5baac1030ddaed67"


def seeded_rational(rng):
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def rationally_scaled_pair(pair, rng):
    # R A D by D^-1 B C for seeded positive rational diagonals R (rows of A),
    # D (inner) and C (columns of B): the same zeros, the product R M C.
    rows, cols, inner = ([seeded_rational(rng) for _ in range(size)] for size in (pair.m, pair.n, pair.r))
    a = [[rows[i] * pair.a[i, k] * inner[k] for k in range(pair.r)] for i in range(pair.m)]
    b = [[pair.b[k, j] / inner[k] * cols[j] for j in range(pair.n)] for k in range(pair.r)]
    return pair_from(a, b)


def rationally_scaled_factor(a, rng):
    # R A C for seeded positive rational diagonals R and C.
    rows, cols = [seeded_rational(rng) for _ in range(a.rows)], [seeded_rational(rng) for _ in range(a.cols)]
    return SymmetricFactor(RationalMatrix.from_rows([[rows[i] * a[i, k] * cols[k] for k in range(a.cols)] for i in range(a.rows)]))


def rational_certificates():
    # Every certificate field on rationally scaled inputs, where the
    # generators have denominators to clear: the fixtures, the partially
    # rigid lifted demo pair, the rigid pair with a kernel of dimension 2 and
    # the fixtures' 30 CP factors at the default Kruskal budget, and the
    # seeded r = 6 pairs (kernel dimension 7) at a budget of 10**3, whose
    # subset loop would take minutes to reach its answer.
    from nmfrigid.cpr import certify_cp

    rng = random.Random(28)
    pairs = [fx.pair() for fx in RIGID_5X5] + [lift_demo_lifted_pair(), pair_from([[0, 3], [4, 0]], [[9, 0], [0, 8]])]
    certs = [certify(rationally_scaled_pair(pair, rng)) for pair in pairs]
    wide = random.Random(6)
    certs += [certify(rationally_scaled_pair(seeded_wide_pair(wide, 6), rng), kruskal_budget=10**3) for _ in range(3)]
    factors = [a for fx in RIGID_5X5 for a in (fx.pair().a, fx.pair().b.transpose())]
    certs += [certify_cp(rationally_scaled_factor(a, rng)) for a in factors]
    return certs


def test_certify_digest_on_rationally_scaled_inputs():
    certs = rational_certificates()
    assert len(certs) == 15 + 2 + 3 + 30
    assert {c.classification for c in certs} == {
        Classification.INFINITESIMALLY_RIGID,
        Classification.PARTIALLY_INFINITESIMALLY_RIGID,
        Classification.INTERIOR_CERTIFIED,
        Classification.UNDETERMINED,
        Classification.NOT_RIGID,
    }
    # The witnesses are not all integer: the scales reach them.
    assert any(x.denominator != 1 for c in certs for x in c.relint_witness or ())
    digest = hashlib.sha256("".join(map(repr, certs)).encode()).hexdigest()
    assert digest == "6c0ec146c2925cb60ea19ac554c3bc4d6aa56fcd9be3c1da718dd0c1d6577726"


def test_certify_lifted_demo_is_partially_rigid():
    cert = certify(lift_demo_lifted_pair())
    assert cert.classification is Classification.PARTIALLY_INFINITESIMALLY_RIGID
    assert cert.v_support() == ((0, 3), (1, 3), (2, 3))
    for mat in cert.v_basis:
        zero = zero_matrix(4, 4)
        assert matmul(mat, mat) == zero
        ident = identity_matrix(4)
        plus = RationalMatrix(4, 4, tuple(x + y for x, y in zip(ident.data, mat.data)))
        minus = RationalMatrix(4, 4, tuple(x - y for x, y in zip(ident.data, mat.data)))
        assert matmul(plus, minus) == ident


def dim_w(pair):
    return certify(pair, kruskal_budget=0).dim_w


def test_dim_w_values():
    assert dim_w(circulant_pair()) == 4
    assert dim_w(RIGID_5X5[0].pair()) == 4
    positive = pair_from(
        [[1, 2, 1], [2, 1, 3], [1, 1, 1], [3, 1, 2]],
        [[1, 2, 1], [2, 1, 1], [1, 1, 2]],
    )
    assert dim_w(positive) == 9


def test_dim_w_at_least_r_and_exactly_r_iff_rigid():
    rng = random.Random(12)
    for _ in range(60):
        pair = rand_pair(rng)
        cert = certify(pair, kruskal_budget=0)
        assert cert.dim_w >= pair.r
        if cert.classification is Classification.INFINITESIMALLY_RIGID:
            assert cert.dim_w == pair.r


def test_duality_identity_lineality_plus_dim_w():
    rng = random.Random(13)
    from nmfrigid.cone import lineality_dimension

    for _ in range(60):
        pair = rand_pair(rng)
        gens = build_dual_generators(pair)
        lin = lineality_dimension(gens.matrix())
        assert lin + dim_w(pair) == pair.r * pair.r
        cert = certify(pair, kruskal_budget=0)
        assert cert.lineality_dim == lin


def stacked_picker_slice_basis(gens):
    # Reference: the kernel of the generator rows stacked with r diagonal
    # selector rows.
    r = gens.r
    rows = [list(v) for v in gens.vectors]
    for d in range(r):
        picker = [Fraction(0)] * (r * r)
        picker[d * r + d] = Fraction(1)
        rows.append(picker)
    return tuple(RationalMatrix(r, r, vec) for vec in nullspace_basis(RationalMatrix.from_rows(rows)))


def test_zero_diagonal_slice_basis_matches_the_stacked_picker_reference():
    rng = random.Random(17)
    pairs = [lift_demo_lifted_pair()] + [rand_pair(rng, max_r=4) for _ in range(80)]
    for pair in pairs:
        gens = build_dual_generators(pair)
        scale, vectors = _zero_diagonal_slice_basis(gens)
        assert all(type(x) is int for vec in vectors for x in vec)
        basis = tuple(RationalMatrix(gens.r, gens.r, tuple(Fraction(x, scale) for x in vec)) for vec in vectors)
        assert basis == stacked_picker_slice_basis(gens)


def squares_to_zero_reference(basis):
    # Reference: XY + YX = 0 for every pair of basis elements, on Fraction
    # products.
    for x, y in itertools.combinations_with_replacement(basis, 2):
        xy, yx = matmul(x, y), matmul(y, x)
        if any(p + q for p, q in zip(xy.data, yx.data)):
            return False
    return True


def integer_form(basis, sign):
    # The flattened elements of `basis` times one common integer of sign
    # `sign`, as the V-slice hands its basis over.
    den = lcm(*[x.denominator for m in basis for x in m.data])
    return [[sign * x.numerator * (den // x.denominator) for x in m.data] for m in basis]


def test_squares_to_zero_matches_the_fraction_product_reference():
    # V-like bases: zero-diagonal r x r matrices with sparse entries whose
    # denominators reach past 2**64.  Half are supported on rows R times
    # columns C with R and C disjoint, so every product vanishes; the rest
    # have free supports, and include pairs with X^2 = Y^2 = 0 but
    # XY + YX != 0, such as E_01 and E_10.
    rng = random.Random(20191107)

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3**41, 2**65)))

    def element(r, rows, cols):
        data = [Fraction(0)] * (r * r)
        for i in rows:
            for j in cols:
                if i != j and rng.random() < 0.6:
                    data[i * r + j] = entry()
        return RationalMatrix(r, r, tuple(data))

    verdicts = []
    for _ in range(300):
        r = rng.randint(2, 6)
        if rng.random() < 0.5:
            rows = set(rng.sample(range(r), rng.randint(1, r - 1)))
            cols = [j for j in range(r) if j not in rows]
        else:
            rows = cols = range(r)
        basis = tuple(element(r, rows, cols) for _ in range(rng.randint(1, 3)))
        expected = squares_to_zero_reference(basis)
        assert _squares_to_zero(integer_form(basis, (-1) ** len(verdicts)), r) is expected
        verdicts.append(expected)
    e01 = RationalMatrix.from_rows([[0, "1/3"], [0, 0]])
    e10 = RationalMatrix.from_rows([[0, 0], [2**70, 0]])
    assert _squares_to_zero(integer_form((e01,), 1), 2) and _squares_to_zero(integer_form((e10,), -1), 2)
    assert not _squares_to_zero(integer_form((e01, e10), 1), 2)
    assert not squares_to_zero_reference((e01, e10))
    assert 100 < sum(verdicts) < 250


# ---------------------------------------------------------------------------
# Kruskal rank
# ---------------------------------------------------------------------------

def oracle_kruskal(columns):
    c = len(columns)
    if c == 0:
        return 0
    height = len(columns[0])
    best = 0
    for k in range(1, c + 1):
        ok = all(
            rank(RationalMatrix.from_columns([columns[i] for i in sub], height)) == k
            for sub in itertools.combinations(range(c), k)
        )
        if ok:
            best = k
    return best


def test_kruskal_fixture_is_twelve():
    assert certify(RIGID_5X5[0].pair()).kruskal_rank == 12


def test_kruskal_duplicate_column():
    col = (Fraction(1), Fraction(2))
    assert kruskal_rank_of_columns((col, col, (Fraction(0), Fraction(1))), 10**6) == 1


def test_kruskal_circulant_is_five():
    assert certify(circulant_pair()).kruskal_rank == 5


def test_kruskal_budget_exhaustion_returns_none():
    cert = certify(RIGID_5X5[0].pair(), kruskal_budget=5)
    assert cert.kruskal_rank is None and cert.kruskal_criterion is None


def test_kruskal_matches_all_subsets_oracle():
    rng = random.Random(14)
    for _ in range(200):
        height = rng.randint(1, 4)
        count = rng.randint(0, 6)
        cols = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(height)) for _ in range(count)
        )
        assert kruskal_rank_of_columns(cols, 10**6) == oracle_kruskal(cols)


def test_kruskal_criterion_fixture_holds():
    cert = certify(RIGID_5X5[0].pair())
    assert cert.generator_count == 13 and cert.kruskal_rank == 12
    assert cert.kruskal_criterion is True


def proportional_generators_pair():
    # Two rows of A with the same single zero slot give two proportional
    # generators as soon as the rows are proportional there.
    return pair_from(
        [[0, 1, 1], [0, 2, 2], [1, 0, 1], [1, 1, 0]],
        [[1, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]],
    )


def zero_free_pair():
    return pair_from([[1, 2], [3, 4]], [[1, 1], [2, 1]])


def test_kruskal_criterion_fails_on_proportional_generators():
    cert = certify(proportional_generators_pair())
    assert cert.kruskal_rank == 1
    assert cert.kruskal_criterion is False


def test_kruskal_criterion_vacuous_for_positive_pair():
    cert = certify(zero_free_pair())
    assert cert.generator_count == 0 and cert.kruskal_rank == 0
    assert cert.kruskal_criterion is True


# ---------------------------------------------------------------------------
# Necessary conditions
# ---------------------------------------------------------------------------

def test_conditions_pass_for_all_fixtures():
    for fixture in RIGID_5X5:
        report = necessary_conditions_report(fixture.pair())
        assert report.all_applicable_pass, (fixture.name, report)


def test_conditions_fail_for_zero_free_column():
    pair = pair_from(
        [[0, 1, 1], [1, 0, 2], [2, 1, 1], [1, 2, 3]],
        [[0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 0, 1]],
    )
    report = necessary_conditions_report(pair)
    by_name = {c.name: c for c in report.conditions}
    assert by_name["inner-coverage"].passed is False
    assert by_name["boundary-closed-a"].passed is False


def test_conditions_report_pair_with_all_zero_row_of_a():
    # Row 0 of A is zero, so no ZeroPattern represents this pair; the report
    # still evaluates all eight conditions on the raw zero supports.
    pair = pair_from(
        [[0, 0, 0, 0], [1, 0, 2, 3], [0, 1, 1, 2], [2, 3, 0, 1], [1, 1, 1, 0]],
        [[0, 1, 2, 3, 1], [1, 0, 1, 2, 3], [2, 1, 0, 1, 1], [1, 2, 3, 0, 0]],
    )
    report = necessary_conditions_report(pair)
    assert [(c.name, c.applicable, c.passed) for c in report.conditions] == [
        ("zero-count", True, True),
        ("boundary-closed-a", True, True),
        ("boundary-closed-b", True, True),
        ("inner-coverage", True, True),
        ("row-zero-bound", False, None),
        ("column-zero-bound", True, True),
        ("zero-rectangles", True, False),
        ("product-positive", True, False),
    ]
    assert report.conditions[0].detail == "13 zeros, need at least 13"
    assert report.conditions[6].detail == "violated by alpha=(0, 1, 2) beta=(3,) k=1 l=2"


def strictly_positive(matrix):
    return all(x > 0 for x in matrix.data)


def test_rigid_with_tight_count_has_positive_product():
    for fixture in RIGID_5X5:
        pair = fixture.pair()
        assert pair.zero_pattern().zero_count == 13
        assert strictly_positive(pair.product())


# ---------------------------------------------------------------------------
# Certificate invariances
# ---------------------------------------------------------------------------

def _scale_pair(pair, scales):
    r = pair.r
    a_rows = [
        [pair.a[i, j] * scales[j] for j in range(r)] for i in range(pair.m)
    ]
    b_rows = [
        [pair.b[i, j] / scales[i] for j in range(pair.n)] for i in range(r)
    ]
    return pair_from(a_rows, b_rows)


def test_scaling_invariance():
    rng = random.Random(15)
    for _ in range(60):
        pair = rand_pair(rng)
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(pair.r)]
        scaled = _scale_pair(pair, scales)
        assert (
            certify(pair, kruskal_budget=0).classification
            is certify(scaled, kruskal_budget=0).classification
        )


def test_permutation_invariance_full_certificate():
    rng = random.Random(16)
    for _ in range(60):
        pair = rand_pair(rng)
        rows = list(range(pair.m))
        cols = list(range(pair.n))
        inner = list(range(pair.r))
        rng.shuffle(rows)
        rng.shuffle(cols)
        rng.shuffle(inner)
        a_rows = [[pair.a[rows[i], inner[j]] for j in range(pair.r)] for i in range(pair.m)]
        b_rows = [[pair.b[inner[i], cols[j]] for j in range(pair.n)] for i in range(pair.r)]
        permuted = pair_from(a_rows, b_rows)
        c1 = certify(pair, kruskal_budget=0)
        c2 = certify(permuted, kruskal_budget=0)
        assert (c1.span_rank, c1.lineality_dim, c1.dim_w, c1.classification) == (
            c2.span_rank, c2.lineality_dim, c2.dim_w, c2.classification
        )


def test_transpose_duality():
    rng = random.Random(17)
    for _ in range(60):
        pair = rand_pair(rng)
        swapped = FactorizationPair(pair.b.transpose(), pair.a.transpose())
        assert (
            certify(pair, kruskal_budget=0).classification
            is certify(swapped, kruskal_budget=0).classification
        )


def test_witness_reverification():
    rng = random.Random(18)
    from nmfrigid.cone import verify_witness

    seen = 0
    for _ in range(80):
        pair = rand_pair(rng)
        gens = build_dual_generators(pair)
        cert = certify(pair, kruskal_budget=0)
        if cert.relint_witness is not None:
            assert verify_witness(gens.matrix(), cert.relint_witness)
            seen += 1
    assert seen > 0


# ---------------------------------------------------------------------------
# Kernel shortcut (kernel dimension <= 1) against the LP and loop references
# ---------------------------------------------------------------------------

def test_twelve_zero_variants_have_trivial_kernel_and_reference_lineality():
    from nmfrigid.cone import lineality_dimension

    for index, fx in enumerate(RIGID_5X5):
        pair = fx.pair()
        # Fill in one zero of A, a different one for each fixture.
        zeros = [(i, j) for i in range(pair.m) for j in range(pair.r) if pair.a[i, j] == 0]
        i, j = zeros[index % len(zeros)]
        a = [list(row) for row in pair.a.row_list()]
        a[i][j] = Fraction(index + 2)
        variant = FactorizationPair(RationalMatrix.from_rows(a), pair.b)
        gens = build_dual_generators(variant)
        assert gens.count == 12 and nullspace_basis(gens.matrix()) == []
        cert = certify(variant, kruskal_budget=0)
        assert cert.relint_witness is None
        assert cert.lineality_dim == lineality_dimension(gens.matrix()) == 0
        assert dim_w(variant) == variant.r ** 2


def test_accept_test_agrees_with_certify():
    # The accept test is certify's infinitesimally-rigid verdict without the
    # lineality and Kruskal stages, on every path: rigid fixtures and their
    # positive extensions (kernel dimension 1), the twelve-zero variants
    # (fewer than r^2 - r + 1 zeros, trivial kernel), lifts (dimension 2),
    # and random small pairs, r = 1 included.
    from nmfrigid.realize import extend_positive, lift_partially_rigid

    pairs = [circulant_pair(), lift_demo_lifted_pair()]
    pairs += [pair_from([[1], [2]], [[3, 0]]), pair_from([[1]], [[1]])]
    for index, fx in enumerate(RIGID_5X5):
        pair = fx.pair()
        pairs += [pair, extend_positive(pair, Fraction(1, index + 2))]
        pairs += twelve_zero_variants(pair)
        pairs.append(lift_partially_rigid(pair))
    rng = random.Random(61)
    pairs += [rand_pair(rng, zero_prob=rng.choice((0.2, 0.4, 0.6))) for _ in range(150)]
    verdicts = set()
    for pair in pairs:
        rigid = certify(pair, kruskal_budget=0).classification is Classification.INFINITESIMALLY_RIGID
        assert is_infinitesimally_rigid(pair.a.row_list(), pair.b.row_list()) is rigid
        verdicts.add((rigid, len(nullspace_basis(build_dual_generators(pair).matrix()))))
    assert {(True, 1), (True, 2), (False, 0), (False, 1), (False, 2)} <= verdicts


# ---------------------------------------------------------------------------
# The integer accept test against the Fraction route
# ---------------------------------------------------------------------------

def unchecked_pair(a_rows, b_rows):
    # A FactorizationPair built without its sign and rank checks, so that the
    # Fraction route also runs on rank-deficient draws.
    pair = object.__new__(FactorizationPair)
    object.__setattr__(pair, "a", RationalMatrix.from_rows(a_rows))
    object.__setattr__(pair, "b", RationalMatrix.from_rows(b_rows))
    return pair


def fraction_accept(a_rows, b_rows):
    # The accept test on Fractions: the r^2-row generator matrix, its
    # rational kernel, the span rank, then the kernel's cone or the relint
    # LP.  Returns the verdict, the kernel dimension and whether A, B and G
    # have full rank.
    from nmfrigid.cone import zero_in_relative_interior
    from nmfrigid.rigidity import _cone_from_kernel

    pair = unchecked_pair(a_rows, b_rows)
    r = pair.r
    matrix = build_dual_generators(pair).matrix()
    kernel = nullspace_basis(matrix)
    spans = matrix.cols - len(kernel) == r * r - r
    full_rank = spans and rank(pair.a) == r == rank(pair.b)
    if not spans:
        return False, len(kernel), full_rank
    if len(kernel) <= 1:
        witness = _cone_from_kernel(kernel, matrix.cols)[0]
    else:
        witness = zero_in_relative_interior(matrix)
    return witness is not None, len(kernel), full_rank


def draw(rng, zeros_a, zeros_b, low, high):
    a = [[0 if zero else rng.randint(low, high) for zero in row] for row in zeros_a]
    b = [[0 if zero else rng.randint(low, high) for zero in row] for row in zeros_b]
    return a, b


def accept_routes_agree(a_rows, b_rows):
    verdict, kernel_dim, full_rank = fraction_accept(a_rows, b_rows)
    assert is_infinitesimally_rigid(a_rows, b_rows) is verdict, (a_rows, b_rows)
    return verdict, kernel_dim, full_rank


def table1_representatives():
    from nmfrigid.patterns import enumerate_patterns, table1_filters

    return enumerate_patterns(5, 5, 4, 13, table1_filters(5, 5))


def test_integer_accept_test_matches_the_fraction_route_on_table1_draws():
    # Wide draws are the search's own; draws from 1..3 often leave A, B or
    # the generator matrix rank deficient.
    seen = set()
    for index, pattern in enumerate(table1_representatives()):
        rng = random.Random(500 + index)
        for low, high in ((1, 1000), (1, 3)):
            for _ in range(15):
                a, b = draw(rng, pattern.zeros_a, pattern.zeros_b, low, high)
                verdict, kernel_dim, full_rank = accept_routes_agree(a, b)
                seen.add((high, verdict, full_rank))
    assert {(1000, True, True), (1000, False, True), (3, False, False), (3, True, True)} <= seen


def test_integer_accept_test_matches_the_fraction_route_on_the_lp_path():
    # One zero more than r^2 - r + 1: a full-rank draw has a kernel of
    # dimension two, which only the relint LP decides.
    verdicts = set()
    for index, pattern in enumerate(table1_representatives()):
        rng = random.Random(600 + index)
        for _ in range(10):
            zeros_a = [list(row) for row in pattern.zeros_a]
            free = [(i, j) for i, row in enumerate(zeros_a) for j, zero in enumerate(row) if not zero]
            i, j = rng.choice(free)
            zeros_a[i][j] = True
            a, b = draw(rng, zeros_a, pattern.zeros_b, 1, rng.choice((3, 1000)))
            verdict, kernel_dim, _ = accept_routes_agree(a, b)
            verdicts.add((verdict, kernel_dim))
    assert {(True, 2), (False, 2)} <= verdicts


def test_integer_accept_test_matches_the_fraction_route_at_r5_and_on_rational_images():
    # Two 21-zero r = 5 representatives whose seed-1 streams reach a rigid
    # draw within 12 samples; lifts of the fixtures, also r = 5, with a
    # two-dimensional kernel, and draws on their zero patterns.  Symmetry
    # images carry Fractions in both factors.
    from nmfrigid.patterns import enumerate_patterns, table1_filters
    from nmfrigid.realize import lift_partially_rigid
    from test_realize import _symmetry_image

    verdicts = set()
    reps = enumerate_patterns(5, 5, 5, 21, table1_filters(5, 5))
    for pattern in (reps[24], reps[26]):
        rng = random.Random(1)
        for _ in range(12):
            a, b = draw(rng, pattern.zeros_a, pattern.zeros_b, 1, 1000)
            verdict, kernel_dim, _ = accept_routes_agree(a, b)
            verdicts.add((5, verdict, kernel_dim))
    rng = random.Random(700)
    for fx in RIGID_5X5:
        lifted = lift_partially_rigid(fx.pair())
        assert lifted.r == 5
        for pair in (fx.pair(), lifted):
            verdict, kernel_dim, _ = accept_routes_agree(pair.a.row_list(), pair.b.row_list())
            verdicts.add((pair.r, verdict, kernel_dim))
            for _ in range(3):
                image = _symmetry_image(pair, rng)
                assert accept_routes_agree(image.a.row_list(), image.b.row_list())[0] is verdict
        zeros_a = [[x == 0 for x in row] for row in lifted.a.row_list()]
        zeros_b = [[x == 0 for x in row] for row in lifted.b.row_list()]
        for _ in range(4):
            verdict, kernel_dim, _ = accept_routes_agree(*draw(rng, zeros_a, zeros_b, 1, 1000))
            verdicts.add((5, verdict, kernel_dim))
    assert {(4, True, 1), (5, True, 1), (5, False, 1), (5, False, 2)} <= verdicts


# ---------------------------------------------------------------------------
# The per-pattern accept plan against the accept test it replaced
# ---------------------------------------------------------------------------

def unplanned_accept(a_rows, b_rows):
    # `is_infinitesimally_rigid` as it stood before `accept_test`: the
    # generator columns of the cleared input in their own order, turned into
    # rows, `integer_kernel`, then the kernel or the LP.  Returns the verdict
    # and the branch that gave it: "rank" (span rank below r^2 - r),
    # "kernel" (kernel dimension at most one) or "lp".
    from nmfrigid.cone import zero_in_relative_interior
    from nmfrigid.rigidity import _cone_from_kernel

    r = len(b_rows)
    coords = [(k, l) for k in range(r) for l in range(r) if k != l]
    a_rows = [integer_multiple(row)[1] if 0 in row else row for row in a_rows]
    b_cols = [integer_multiple(col)[1] for col in zip(*b_rows)]
    columns, _ = generator_columns(a_rows, b_cols, r, coords)
    count = len(columns)
    span_rank, _, kernel = integer_kernel([list(row) for row in zip(*columns)], count)
    if span_rank != len(coords):
        return False, "rank"
    if len(kernel) >= 2:
        return zero_in_relative_interior(RationalMatrix.from_columns(columns, len(coords))) is not None, "lp"
    return _cone_from_kernel(kernel, count)[0] is not None, "kernel"


def count_relint_lps(monkeypatch):
    # A one-element list counting the relint LPs that `rigidity` runs.
    from nmfrigid import rigidity

    lps = [0]
    relint = rigidity.zero_in_relative_interior

    def counting(matrix):
        lps[0] += 1
        return relint(matrix)

    monkeypatch.setattr(rigidity, "zero_in_relative_interior", counting)
    return lps


def one_more_zero(zeros_a, rng):
    # The zero mask of A with one more zero at a seeded free slot.
    zeros_a = [list(row) for row in zeros_a]
    i, j = rng.choice([(i, j) for i, row in enumerate(zeros_a) for j, zero in enumerate(row) if not zero])
    zeros_a[i][j] = True
    return zeros_a


# (m, n, r, zeros) -> {(high, branch, verdict): draws} of the test below.
PLAN_BRANCHES = {
    (5, 5, 4, 13): {
        (3, "kernel", False): 45, (3, "kernel", True): 2, (3, "lp", False): 45, (3, "lp", True): 3,
        (3, "rank", False): 1, (1000, "kernel", False): 46, (1000, "kernel", True): 2,
        (1000, "lp", False): 43, (1000, "lp", True): 5,
    },
    (6, 5, 4, 13): {
        (3, "kernel", False): 47, (3, "lp", False): 42, (3, "rank", False): 7,
        (1000, "kernel", False): 48, (1000, "lp", False): 42, (1000, "lp", True): 2, (1000, "rank", False): 4,
    },
    (6, 6, 4, 13): {
        (3, "kernel", False): 43, (3, "lp", False): 45, (3, "lp", True): 2, (3, "rank", False): 6,
        (1000, "kernel", False): 48, (1000, "lp", False): 48,
    },
    (7, 5, 4, 13): {
        (3, "kernel", False): 46, (3, "lp", False): 47, (3, "lp", True): 1, (3, "rank", False): 2,
        (1000, "kernel", False): 48, (1000, "lp", False): 48,
    },
    (7, 6, 4, 13): {
        (3, "kernel", False): 37, (3, "lp", False): 44, (3, "rank", False): 7,
        (1000, "kernel", False): 44, (1000, "lp", False): 44,
    },
    (8, 5, 4, 13): {
        (3, "kernel", False): 38, (3, "lp", False): 38, (3, "lp", True): 1, (3, "rank", False): 3,
        (1000, "kernel", False): 40, (1000, "lp", False): 39, (1000, "lp", True): 1,
    },
    (9, 5, 4, 13): {
        (3, "kernel", False): 5, (3, "kernel", True): 1, (3, "lp", False): 8, (3, "rank", False): 2,
        (1000, "kernel", False): 8, (1000, "lp", False): 8,
    },
    (5, 5, 5, 21): {
        (3, "kernel", False): 20, (3, "lp", False): 12, (3, "rank", False): 8,
        (1000, "kernel", False): 20, (1000, "lp", False): 11, (1000, "lp", True): 1, (1000, "rank", False): 8,
    },
    (6, 5, 5, 21): {
        (3, "kernel", False): 20, (3, "lp", False): 20, (1000, "kernel", False): 20, (1000, "lp", False): 20,
    },
}


@pytest.mark.parametrize("m, n, r, zeros", PLAN_BRANCHES)
def test_accept_plan_matches_the_unplanned_accept_test(monkeypatch, m, n, r, zeros):
    # Seeded representatives of each table-1 shape, each with its own zeros
    # and with one zero more in A, whose full-rank draws have a kernel of
    # dimension two and so reach the LP.  Entries 1..3 give rank deficient
    # draws, 1..1000 the search's own.  The plan of each mask, and the
    # public function, agree with the unplanned test on every draw, and run
    # the LP on the same draws; the counts are (high, branch, verdict) ->
    # draws.
    from collections import Counter

    from nmfrigid.patterns import enumerate_patterns, table1_filters
    from nmfrigid.rigidity import _plan_values, accept_test

    lps = count_relint_lps(monkeypatch)
    rng = random.Random(100 * m + 10 * n + r)
    reps = enumerate_patterns(m, n, r, zeros, table1_filters(m, n))
    seen = Counter()
    for pattern in rng.sample(reps, min(len(reps), 12 if r == 4 else 5)):
        for zeros_a in (pattern.zeros_a, one_more_zero(pattern.zeros_a, rng)):
            accepts = accept_test(zeros_a, pattern.zeros_b)
            for high in (3, 1000):
                for _ in range(4):
                    a, b = draw(rng, zeros_a, pattern.zeros_b, 1, high)
                    verdict, branch = unplanned_accept(a, b)
                    assert accepts(_plan_values(a, b)) is verdict, (a, b)
                    assert is_infinitesimally_rigid(a, b) is verdict, (a, b)
                    seen[high, branch, verdict] += 1
    assert dict(seen) == PLAN_BRANCHES[m, n, r, zeros]
    assert lps == [2 * sum(draws for (_, branch, _), draws in seen.items() if branch == "lp")]


def test_accept_plan_matches_the_unplanned_test_on_the_seed1_search_stream(monkeypatch):
    # The draws of `realize_pattern` at seed 1 on the 15 table-1
    # representatives, up to the first accepted one of each: every
    # rejection comes from the sign of a one-dimensional kernel.
    from collections import Counter

    from nmfrigid.rigidity import _plan_values, accept_test

    lps = count_relint_lps(monkeypatch)
    seen = Counter()
    for pattern in table1_representatives():
        accepts = accept_test(pattern.zeros_a, pattern.zeros_b)
        rng = random.Random(1)
        verdict = False
        while not verdict:
            a, b = draw(rng, pattern.zeros_a, pattern.zeros_b, 1, 1000)
            verdict, branch = unplanned_accept(a, b)
            assert accepts(_plan_values(a, b)) is verdict, (a, b)
            seen[branch, verdict] += 1
    assert dict(seen) == {("kernel", False): 671, ("kernel", True): 15}
    assert lps == [0]


@pytest.mark.parametrize("m, n, r", [(1, 1, 1), (3, 2, 1), (1, 4, 2), (2, 4, 3), (5, 3, 4)])
def test_value_layout_reads_back_and_lists_the_entries_off_the_zeros(m, n, r):
    # `_plan_values` lays out A row-major, then -B row-major: `_value_rows`
    # reads the factors back from it, and `_value_slots` gives its length
    # and the (slot, sign) of each entry off the zeros, in slot order, the
    # sign being the one the list gives the drawn entry.
    from nmfrigid.rigidity import _plan_values, _value_rows, _value_slots

    rng = random.Random(100 * m + 10 * n + r)
    for _ in range(6):
        zeros_a = [[rng.random() < 0.4 for _ in range(r)] for _ in range(m)]
        zeros_b = [[rng.random() < 0.4 for _ in range(n)] for _ in range(r)]
        a, b = draw(rng, zeros_a, zeros_b, 1, 50)
        values = _plan_values(a, b)
        assert _value_rows(values, m, r, n) == (a, b)
        free, size = _value_slots(zeros_a, zeros_b)
        assert len(values) == size == m * r + r * n
        assert free == [(k, 1 if x > 0 else -1) for k, x in enumerate(values) if x]
        assert [sign * values[k] for k, sign in free] == [x for row in a + b for x in row if x]


def test_accept_plans_are_memoised_by_mask_value():
    # List and tuple masks of one pattern share one plan; verdicts read from
    # remembered plans are those of fresh ones; the memo keeps only the
    # pattern planned last.
    from nmfrigid.rigidity import _accept_plan, _plan_values, accept_test

    reps = table1_representatives()
    _accept_plan.cache_clear()
    lists = [[list(row) for row in mask] for mask in (reps[0].zeros_a, reps[0].zeros_b)]
    accept_test(*lists)
    accept_test(reps[0].zeros_a, reps[0].zeros_b)
    info = _accept_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    rng = random.Random(34)
    draws = [(p, *draw(rng, p.zeros_a, p.zeros_b, 1, high)) for p in reps[:10] for high in (2, 1000) for _ in range(6)]

    def verdicts():
        return [accept_test(p.zeros_a, p.zeros_b)(_plan_values(a, b)) for p, a, b in draws]

    remembered = verdicts()
    _accept_plan.cache_clear()
    assert verdicts() == remembered and set(remembered) == {False, True}
    _accept_plan.cache_clear()
    for pattern in (reps[0], reps[0], reps[1], reps[0]):
        accept_test(pattern.zeros_a, pattern.zeros_b)
    info = _accept_plan.cache_info()
    assert (info.misses, info.hits, info.maxsize, info.currsize) == (3, 1, 1, 1)


# ---------------------------------------------------------------------------
# The planned elimination steps against the generic elimination
# ---------------------------------------------------------------------------

def generic_accept(zeros_a, zeros_b, a_rows, b_rows):
    # The accept test without the plan: `one_signed_kernel` on the
    # generator matrix built from the outer products, in
    # `build_dual_generators` order, then the relint LP at kernel dimension
    # two or more.  An A-zero (i, j) is the r x r matrix with A[i, k] at
    # (k, j), a B-zero (i, j) the one with -B[l, j] at (i, l); each is read
    # at the off-diagonal coordinates, row-major.
    from nmfrigid.cone import zero_in_relative_interior
    from nmfrigid.exactlin import one_signed_kernel

    r = len(b_rows)
    coords = [(k, l) for k in range(r) for l in range(r) if k != l]
    outer = [
        [[a_rows[i][k] if l == j else 0 for l in range(r)] for k in range(r)]
        for i, zeros in enumerate(zeros_a) for j in range(r) if zeros[j]
    ]
    outer += [
        [[-b_rows[l][j] if k == i else 0 for l in range(r)] for k in range(r)]
        for i in range(r) for j, zero in enumerate(zeros_b[i]) if zero
    ]
    columns = [[g[k][l] for k, l in coords] for g in outer]
    count = len(columns)
    span_rank, one_signed = one_signed_kernel([list(row) for row in zip(*columns)], count)
    if span_rank != len(coords):
        return False
    if count - span_rank >= 2:
        return zero_in_relative_interior(RationalMatrix.from_columns(columns, len(coords))) is not None
    return one_signed


def test_pivot_order_gives_no_slot_a_zero_probe(monkeypatch):
    # Each probe value is a 60-bit draw plus one, so it is nonzero even
    # where the draw is 0.  A draw that is one constant gives every slot
    # the same probe value, which scales the zero pattern's entries alike,
    # so the draws 0 and 1 plan the same steps, and some step pivots.
    from types import SimpleNamespace

    from nmfrigid import rigidity

    pattern = table1_representatives()[0]
    height, cells, _, count = rigidity._accept_plan(pattern.zeros_a, pattern.zeros_b)
    plans = []
    for bits in (0, 1):
        stream = SimpleNamespace(getrandbits=lambda _, bits=bits: bits)
        monkeypatch.setattr(rigidity, "random", SimpleNamespace(Random=lambda _: stream))
        plans.append(rigidity._pivot_order(height, count, cells))
    assert plans[0] == plans[1] and plans[0][0]


def test_planned_steps_match_the_generic_elimination(monkeypatch):
    # Every table-1 representative at r = 4, and non-tight `wpoint`
    # patterns at r = 3 and 4, whose full-rank draws reach the LP.  Entries
    # 1..1 to 1..3 cancel planned pivots, which the plan hands to
    # `one_signed_kernel`; the seed-1 search stream over the 5x5
    # representatives cancels none.
    from collections import Counter

    from nmfrigid import rigidity
    from nmfrigid.patterns import PatternFilter, enumerate_patterns, table1_filters

    fallbacks = Counter()
    generic = rigidity.one_signed_kernel

    def counting(rows, cols):
        fallbacks[high] += 1  # under the range being drawn
        return generic(rows, cols)

    monkeypatch.setattr(rigidity, "one_signed_kernel", counting)
    wpoint = frozenset({PatternFilter.WPOINT})
    rng = random.Random(3102)
    tight = [p for m, n in TABLE1_SHAPES for p in enumerate_patterns(m, n, 4, 13, table1_filters(m, n))]
    loose = enumerate_patterns(4, 4, 3, 8, wpoint) + enumerate_patterns(5, 4, 3, 8, wpoint)
    loose += rng.sample(enumerate_patterns(5, 5, 4, 14, wpoint), 12)
    seen = Counter()
    for pattern, per_range in [(p, 10) for p in tight] + [(p, 5) for p in loose]:
        accepts = rigidity.accept_test(pattern.zeros_a, pattern.zeros_b)
        for high in (1, 2, 3, 1000):
            for _ in range(per_range):
                a, b = draw(rng, pattern.zeros_a, pattern.zeros_b, 1, high)
                verdict = generic_accept(pattern.zeros_a, pattern.zeros_b, a, b)
                assert accepts(rigidity._plan_values(a, b)) is verdict, (a, b)
                seen[pattern.r, high, verdict] += 1
    assert len(tight) == 102 and sum(seen.values()) == 4 * (10 * 102 + 5 * len(loose))
    assert {(3, 1000, True), (4, 1000, True), (4, 1000, False), (4, 3, True)} <= set(seen)
    # The probe steers each plan clear of pivots that cancel on every draw:
    # 10 of the wide draws of the 14-zero patterns fell back without it.
    assert all(fallbacks[high] for high in (1, 2, 3)) and fallbacks[1000] == 0
    high = "seed 1"
    for pattern in table1_representatives():
        accepts = rigidity.accept_test(pattern.zeros_a, pattern.zeros_b)
        rng = random.Random(1)
        verdict = False
        while not verdict:
            a, b = draw(rng, pattern.zeros_a, pattern.zeros_b, 1, 1000)
            verdict = generic_accept(pattern.zeros_a, pattern.zeros_b, a, b)
            assert accepts(rigidity._plan_values(a, b)) is verdict, (a, b)
            seen["seed 1"] += 1
    assert seen["seed 1"] == 686 and fallbacks["seed 1"] == 0


@pytest.mark.parametrize(
    "a_rows, b_rows, count, kernel_dim, rigid",
    [
        # r = 1 without zeros: no motions, no generators, the empty witness.
        ([[1], [2]], [[3, 4]], 0, 0, True),
        # r = 1 with a zero row of A: one generator with no entries.
        ([[0], [2]], [[3, 4]], 1, 1, True),
        # No zeros at r = 2: nothing spans the two motions.
        ([[1, 2], [3, 4]], [[1, 1], [2, 1]], 0, 0, False),
        # d = 0: two generators span the two motions, with no relation.
        ([[0, 1], [1, 0]], [[1, 2], [2, 1]], 2, 0, False),
        # Fractions, d = 2: the relint LP decides.
        ([[0, Fraction(1, 2)], [Fraction(3, 4), 0]], [[Fraction(9, 5), 0], [0, 8]], 4, 2, True),
        ([[0, Fraction(5, 3)], [7, 0]], [[4, Fraction(3, 2), 9], [0, 0, Fraction(4, 7)]], 4, 2, False),
    ],
)
def test_accept_test_edge_cases(a_rows, b_rows, count, kernel_dim, rigid):
    pair = unchecked_pair(a_rows, b_rows)
    gens = build_dual_generators(pair)
    assert gens.count == count
    assert len(nullspace_basis(gens.matrix())) == kernel_dim
    assert is_infinitesimally_rigid(a_rows, b_rows) is rigid
    assert unplanned_accept(a_rows, b_rows)[0] is rigid
    if rank(pair.a) == pair.r == rank(pair.b):
        cert = certify(pair_from(a_rows, b_rows), kruskal_budget=0)
        assert (cert.classification is Classification.INFINITESIMALLY_RIGID) is rigid
        assert (cert.relint_witness == ()) is (count == 0)


def opposite_pair():
    # Generators e10, e01 and -e10 (in r x r coordinates): the kernel is
    # spanned by (1, 0, 1), nonnegative with a zero entry.
    return pair_from([[0, 1], [1, 0]], [[1, 1], [0, 1]])


def test_nonnegative_kernel_with_zero_entry_gives_support_lineality():
    from nmfrigid.cone import lineality_dimension

    pair = opposite_pair()
    gens = build_dual_generators(pair)
    (v,) = nullspace_basis(gens.matrix())
    assert v == (Fraction(1), Fraction(0), Fraction(1))
    cert = certify(pair)
    assert cert.relint_witness is None
    assert cert.lineality_dim == lineality_dimension(gens.matrix()) == 1
    assert dim_w(pair) == 3
    assert cert.classification is Classification.UNDETERMINED


def generator_kernel(gens):
    # The integer kernel of the generator matrix, as certification takes it.
    return integer_kernel(_integer_rows(gens.matrix()), gens.count)[2]


def test_kernel_answers_do_not_depend_on_the_sign_of_the_basis_vector():
    from nmfrigid.rigidity import _cone_from_kernel

    for pair in (RIGID_5X5[0].pair(), opposite_pair()):
        gens = build_dual_generators(pair)
        (v,) = generator_kernel(gens)
        negated = [-x for x in v]
        assert _cone_from_kernel([negated], gens.count) == _cone_from_kernel([v], gens.count)


def test_kernel_with_zero_entry_is_handed_to_kruskal_rank_of_columns(monkeypatch):
    from nmfrigid import rigidity

    calls = []

    def recording(columns, budget, *, kernel=None):
        calls.append((budget, kernel))
        return kruskal_rank_of_columns(columns, budget, kernel=kernel)

    monkeypatch.setattr(rigidity, "kruskal_rank_of_columns", recording)
    pair = opposite_pair()
    gens = build_dual_generators(pair)
    for budget in (0, 2, 3, 4):
        assert certify(pair, kruskal_budget=budget).kruskal_rank == kruskal_rank_of_columns(
            gens.vectors, budget
        )
    kernel = generator_kernel(gens)
    assert all(type(x) is int for v in kernel for x in v)
    assert calls == [(budget, kernel) for budget in (0, 2, 3, 4)]


def test_zero_budget_finds_no_circuit(monkeypatch):
    # Any search over more columns than the kernel dimension charges at
    # least one subset, so budget 0 answers None before looking for
    # circuits; generators that are all zero (a zero row of A, c = d)
    # charge nothing and answer 0.
    from nmfrigid import rigidity

    calls = []
    circuits = rigidity._kernel_circuits
    monkeypatch.setattr(rigidity, "_kernel_circuits", lambda kernel, c: calls.append(c) or circuits(kernel, c))
    pair = seeded_wide_pair(random.Random(402), 4)
    assert certify(pair, kruskal_budget=0).kruskal_rank is None
    assert calls == []
    assert certify(pair, kruskal_budget=1).kruskal_rank is None
    assert calls == [build_dual_generators(pair).count]
    calls.clear()
    zero_row = pair_from([[0, 0], [1, 2], [3, 1]], [[1, 1], [2, 1]])
    gens = build_dual_generators(zero_row)
    assert gens.count == 2 and not any(map(any, gens.columns))
    assert certify(zero_row, kruskal_budget=0).kruskal_rank == 0
    assert kruskal_rank_of_columns(gens.vectors, 0) == 0
    assert calls == [2, 2]


def test_kruskal_shortcut_matches_loop_around_the_count():
    for fx in RIGID_5X5:
        pair = fx.pair()
        gens = build_dual_generators(pair)
        c = gens.count
        expected = {b: kernel_subset_kruskal(gens.vectors, b)[0] for b in (c - 1, c, c + 1)}
        assert expected == {c - 1: None, c: c - 1, c + 1: c - 1}
        for budget, kruskal in expected.items():
            assert kruskal_rank_of_columns(gens.vectors, budget) == kruskal
            assert certify(pair, kruskal_budget=budget).kruskal_rank == kruskal


# ---------------------------------------------------------------------------
# Kernel-side Kruskal search against the column-side search
# ---------------------------------------------------------------------------

def primal_kruskal(columns, budget):
    # Reference: rank every k-subset of columns directly, descending from
    # min(count, rank), one unit of budget per subset.  Returns the answer
    # (None when the budget runs out) and the subsets charged.
    c = len(columns)
    if c == 0:
        return 0, 0
    height = len(columns[0])
    k = min(c, rank(RationalMatrix.from_columns(columns, height)))
    used = 0
    while k >= 1:
        for subset in itertools.combinations(range(c), k):
            if used >= budget:
                return None, used
            used += 1
            sub = RationalMatrix.from_columns([columns[i] for i in subset], height)
            if rank(sub) != k:
                break
        else:
            return k, used
        k -= 1
    return 0, used


def kernel_subset_kruskal(columns, budget):
    # Reference: the same descending search testing each k-subset S by the
    # rank of the integer kernel block outside S (independent iff it is d).
    c = len(columns)
    if c == 0:
        return 0, 0
    basis = nullspace_basis(RationalMatrix.from_columns(columns, len(columns[0])))
    kernel = [integer_multiple(v)[1] for v in basis]
    d = len(kernel)
    used = 0
    for k in range(c - d, 0, -1):
        for subset in itertools.combinations(range(c), k):
            if used >= budget:
                return None, used
            used += 1
            outside = [j for j in range(c) if j not in subset]
            block = RationalMatrix(d, len(outside), tuple(row[j] for row in kernel for j in outside))
            if rank(block) != d:
                break
        else:
            return k, used
    return 0, used


def assert_kruskal_matches_primal(columns):
    # The charge threshold is the number of subsets a full search charges:
    # the least budget that gets an answer instead of None.
    answer, threshold = primal_kruskal(columns, 10**6)
    for budget in sorted({0, 1, max(threshold - 1, 0), threshold, 10**6}):
        expected = primal_kruskal(columns, budget)[0]
        assert kruskal_rank_of_columns(columns, budget) == expected, (budget, threshold)
    if threshold:
        assert kruskal_rank_of_columns(columns, threshold - 1) is None
    assert kruskal_rank_of_columns(columns, threshold) == answer


def twelve_zero_variants(pair):
    # Every pair obtained by filling in one zero of A or of B.
    for name in ("a", "b"):
        mat = getattr(pair, name)
        for i in range(mat.rows):
            for j in range(mat.cols):
                if mat[i, j] == 0:
                    rows = [list(row) for row in mat.row_list()]
                    rows[i][j] = Fraction(i + j + 2, 3)
                    filled = RationalMatrix.from_rows(rows)
                    if name == "a":
                        yield FactorizationPair(filled, pair.b)
                    else:
                        yield FactorizationPair(pair.a, filled)


def test_kernel_kruskal_matches_primal_search_on_random_columns():
    rng = random.Random(400)
    for _ in range(300):
        height = rng.randint(1, 5)
        count = rng.randint(0, 8)
        pool = [
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(height))
            for _ in range(3)
        ]
        cols = tuple(
            rng.choice(pool)
            if rng.random() < 0.15
            else tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(height))
            for _ in range(count)
        )
        assert_kruskal_matches_primal(cols)


def test_kernel_kruskal_matches_primal_search_on_fixture_and_cp_generators():
    from nmfrigid.cpr import SymmetricFactor, build_skew_generators

    for fx in RIGID_5X5:
        pair = fx.pair()
        assert_kruskal_matches_primal(build_dual_generators(pair).vectors)
        for factor in (pair.a, pair.b.transpose()):
            assert_kruskal_matches_primal(build_skew_generators(SymmetricFactor(factor)).vectors)


def test_kernel_kruskal_matches_primal_search_on_twelve_zero_variants():
    seen = 0
    for fx in RIGID_5X5:
        for variant in twelve_zero_variants(fx.pair()):
            gens = build_dual_generators(variant)
            assert gens.count == 12
            assert_kruskal_matches_primal(gens.vectors)
            seen += 1
    assert seen == 15 * 13


def test_lifted_fixture_kruskal_rank_and_charge_are_pinned(monkeypatch):
    from nmfrigid import rigidity
    from nmfrigid.realize import lift_partially_rigid

    gens = build_dual_generators(lift_partially_rigid(RIGID_5X5[0].pair()))
    assert gens.count == 18 and len(nullspace_basis(gens.matrix())) == 2
    # A kernel of dimension 2 charges its subsets from its circuits and
    # tests none of them.
    tested = []
    monkeypatch.setattr(rigidity, "rank", lambda m: tested.append(m) or rank(m))
    assert kruskal_rank_of_columns(gens.vectors, 30184) is None
    assert kruskal_rank_of_columns(gens.vectors, 30185) == 4
    assert tested == []


# ---------------------------------------------------------------------------
# Counted Kruskal search against the subset searches
# ---------------------------------------------------------------------------

def small_kernel_columns(rng):
    # c <= 10 columns whose kernel has dimension d <= 2.
    return kernel_columns(rng, rng.randint(0, 2), 10)


def kernel_columns(rng, d, most):
    # At most `most` columns whose kernel has dimension d (more when the
    # random columns happen to be dependent): independent random columns
    # plus d extra ones, each a zero column, a scaled copy of another column
    # or a combination of a random subset of the independent ones.  Columns
    # left out of every combination lie outside every dependency.
    free = rng.randint(1, most - d)
    height = free + rng.randint(0, 2)
    cols = [
        tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(height))
        for _ in range(free)
    ]
    kinds = []
    for _ in range(d):
        kind = rng.choice(("zero", "copy", "combination", "combination"))
        kinds.append(kind)
        if kind == "zero":
            cols.append((Fraction(0),) * height)
        elif kind == "copy":
            scale = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))
            cols.append(tuple(scale * x for x in rng.choice(cols)))
        else:
            part = rng.sample(cols[:free], rng.randint(1, free))
            weights = [Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2)) for _ in part]
            cols.append(tuple(sum(w * col[i] for w, col in zip(weights, part)) for i in range(height)))
    rng.shuffle(cols)
    return tuple(cols), kinds


def test_kruskal_on_small_kernels_matches_primal_search():
    from nmfrigid.rigidity import _kernel_circuits

    e1, e2, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(0),) * 2
    for cols in ((zero,), (e1, zero, e2), (zero, e1, zero)):
        assert primal_kruskal(cols, 10**6)[0] == 0
        assert_kruskal_matches_primal(cols)

    rng = random.Random(404)
    seen = {"zero": 0, "copy": 0, "combination": 0, "outside": 0, "three classes": 0}
    checked = 0
    for _ in range(250):
        cols, kinds = small_kernel_columns(rng)
        basis = nullspace_basis(RationalMatrix.from_columns(cols, len(cols[0])))
        if len(basis) > 2:  # the random columns happened to be dependent
            continue
        assert_kruskal_matches_primal(cols)
        checked += 1
        for kind in kinds:
            seen[kind] += 1
        kernel = [integer_multiple(v)[1] for v in basis]
        if kernel and any(not any(row[j] for row in kernel) for j in range(len(cols))):
            seen["outside"] += 1
        if len(basis) == 2 and len(_kernel_circuits(kernel, len(cols))) >= 3:
            seen["three classes"] += 1
    assert checked >= 240
    assert min(seen.values()) >= 10, seen


def test_lifted_fixture_charge_thresholds_match_the_kernel_subset_loop():
    from nmfrigid.realize import lift_partially_rigid

    for fx in RIGID_5X5[:3]:
        gens = build_dual_generators(lift_partially_rigid(fx.pair()))
        assert len(nullspace_basis(gens.matrix())) == 2
        answer, threshold = kernel_subset_kruskal(gens.vectors, 10**6)
        assert answer is not None and threshold > 10**4
        assert kruskal_rank_of_columns(gens.vectors, threshold - 1) is None
        assert kruskal_rank_of_columns(gens.vectors, threshold) == answer
        assert kruskal_rank_of_columns(gens.vectors, 10**6) == answer


def count_ranks(monkeypatch):
    # The (rows, cols) of every matrix the Kruskal search ranks.
    from nmfrigid import rigidity

    shapes = []
    monkeypatch.setattr(rigidity, "rank", lambda m: shapes.append((m.rows, m.cols)) or rank(m))
    return shapes


def three_dimensional_cp_kernels():
    # The skew generators of the fixture CP factors whose kernel has
    # dimension three.
    factors = [
        build_skew_generators(SymmetricFactor(factor)).vectors
        for fx in RIGID_5X5
        for factor in (fx.pair().a, fx.pair().b.transpose())
    ]
    return [v for v in factors if len(nullspace_basis(RationalMatrix.from_columns(v, len(v[0])))) == 3]


def test_kernel_of_dimension_three_charges_the_loop_threshold_with_no_rank(monkeypatch):
    factors = three_dimensional_cp_kernels()
    assert len(factors) == 3
    ranks = count_ranks(monkeypatch)
    for cols in factors:
        answer, threshold = kernel_subset_kruskal(cols, 10**6)
        for budget in sorted({0, 1, threshold - 1, threshold, 10**6}):
            assert kruskal_rank_of_columns(cols, budget) == kernel_subset_kruskal(cols, budget)[0]
        assert answer is not None and threshold > 1
    # The circuits give every charge: no subset is ranked.
    assert ranks == []


def test_circuit_cap_bounds_the_candidate_sets_inclusively(monkeypatch):
    # The d = 3 CP factors have c = 9 columns of height 6, so C(9, 2) = 36
    # candidate sets: a cap of 36 finds their circuits, a cap of 35 tests
    # their subsets.  Their searches stop at levels k >= 3, where the
    # 3 x (9 - k) kernel block has no more cells than the k x 6 block of
    # the subset's columns (as many at k = 3), so each subset is one rank
    # of the kernel block.
    from nmfrigid import rigidity

    ranks = count_ranks(monkeypatch)
    shapes = set()
    for cols in three_dimensional_cp_kernels():
        assert (len(cols), len(cols[0])) == (9, 6)
        answer, threshold = kernel_subset_kruskal(cols, 10**6)
        monkeypatch.setattr(rigidity, "_CIRCUIT_CAP", 36)
        ranks.clear()
        assert kruskal_rank_of_columns(cols, 10**6) == answer
        assert ranks == []
        monkeypatch.setattr(rigidity, "_CIRCUIT_CAP", 35)
        assert kruskal_rank_of_columns(cols, 10**6) == answer
        assert len(ranks) == threshold
        shapes.update(ranks)
    assert shapes == {(3, 3), (3, 4), (3, 5), (3, 6)}


def test_kernel_circuits_match_both_subset_searches_for_every_small_dimension(monkeypatch):
    # Kernel dimensions 0 to 8 with zero, parallel and combined columns, at
    # budgets 0, 1, threshold - 1, threshold and 10**6, with the circuits
    # and with the subset loop forced by a cap of 0.  At d <= 2 the circuits
    # are always used.  The loop makes one rank per subset the kernel-side
    # reference tests.
    from nmfrigid import rigidity

    ranks = count_ranks(monkeypatch)
    rng = random.Random(407)
    seen = {d: 0 for d in range(9)}
    kinds = set()
    for _ in range(150):
        cols, made = kernel_columns(rng, rng.randint(0, 8), 12)
        kinds.update(made)
        d = len(nullspace_basis(RationalMatrix.from_columns(cols, len(cols[0]))))
        seen[min(d, 8)] += 1
        answer, threshold = primal_kruskal(cols, 10**6)
        assert kernel_subset_kruskal(cols, 10**6) == (answer, threshold)
        for budget in sorted({0, 1, max(threshold - 1, 0), threshold, 10**6}):
            expected = answer if budget >= threshold else None
            for cap in (rigidity._CIRCUIT_CAP, 0):
                monkeypatch.setattr(rigidity, "_CIRCUIT_CAP", cap)
                ranks.clear()
                assert kruskal_rank_of_columns(cols, budget) == expected, (budget, cap)
                looped = cap == 0 and d > 2
                assert len(ranks) == (kernel_subset_kruskal(cols, budget)[1] if looped else 0)
    assert kinds == {"zero", "copy", "combination"}
    assert min(seen.values()) >= 10, seen


def seeded_tall_pair(m, r):
    """An m x r by r x m pair seeded by Random(10m + r): entries from 1 to 9,
    each 0 with probability 0.3."""
    rng = random.Random(10 * m + r)
    while True:
        a = [[0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(r)] for _ in range(m)]
        b = [[0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(m)] for _ in range(r)]
        try:
            return pair_from(a, b)
        except ValueError:
            continue


def test_tall_pair_tests_its_subsets_on_the_generator_columns(monkeypatch):
    # 20 x 4 by 4 x 20: 46 generators of height 16 and a kernel of dimension
    # 34, far past the circuit cap.  At every level k <= 12 the k x 16 block
    # of generator columns has fewer cells than the 34 x (46 - k) kernel
    # block, so each subset is one rank of its own columns, and the search
    # makes as many ranks and gives the same rank as the kernel-side loop.
    gens = build_dual_generators(seeded_tall_pair(20, 4))
    assert gens.count == 46 and len(nullspace_basis(gens.matrix())) == 34
    answer, used = kernel_subset_kruskal(gens.vectors, 10**6)
    ranks = count_ranks(monkeypatch)
    assert kruskal_rank_of_columns(gens.vectors, 10**6) == answer
    assert len(ranks) == used and used > 1
    assert all(cols == 16 and rows <= 12 for rows, cols in ranks)


# ---------------------------------------------------------------------------
# The Kruskal criterion read off the certificate
# ---------------------------------------------------------------------------

def _kruskal_report(gens, target, budget):
    # Reference: the criterion as a search of its own on the generator
    # columns, held against min(count, target); target is r^2 - r for pairs
    # and r(r-1)/2 for symmetric factors.  Returns (bound, rank, holds).
    bound = min(gens.count, target)
    k = kruskal_rank_of_columns(gens.vectors, budget)
    holds = None if k is None else (k == bound)
    return bound, k, holds


def assert_criterion_matches_reference(gens, target, certify_at):
    # At budgets 0, threshold - 1, threshold and 10**6, the threshold being
    # the least budget that gets the rank instead of None.
    threshold = kernel_subset_kruskal(gens.vectors, 10**6)[1]
    verdicts = set()
    for budget in sorted({0, max(threshold - 1, 0), threshold, 10**6}):
        _, k, holds = _kruskal_report(gens, target, budget)
        cert = certify_at(budget)
        assert (cert.kruskal_rank, cert.kruskal_criterion) == (k, holds), budget
        verdicts.add(holds)
    return verdicts


def test_kruskal_criterion_matches_the_separate_search():
    from nmfrigid.cpr import SymmetricFactor, build_skew_generators, certify_cp

    pairs = [zero_free_pair(), proportional_generators_pair()]
    for fx in RIGID_5X5:
        pairs.append(fx.pair())
        pairs += twelve_zero_variants(fx.pair())
    assert len(pairs) == 2 + 15 + 195
    verdicts = set()
    for pair in pairs:
        verdicts |= assert_criterion_matches_reference(
            build_dual_generators(pair),
            pair.r * pair.r - pair.r,
            lambda budget: certify(pair, kruskal_budget=budget),
        )
    factors = [
        SymmetricFactor(a) for fx in RIGID_5X5 for a in (fx.pair().a, fx.pair().b.transpose())
    ]
    for factor in factors:
        verdicts |= assert_criterion_matches_reference(
            build_skew_generators(factor),
            factor.r * (factor.r - 1) // 2,
            lambda budget: certify_cp(factor, kruskal_budget=budget),
        )
    assert verdicts == {None, True, False}
    assert certify(zero_free_pair(), kruskal_budget=0).kruskal_criterion is True
    assert certify(proportional_generators_pair()).kruskal_criterion is False


# ---------------------------------------------------------------------------
# One generator matrix per certification
# ---------------------------------------------------------------------------

def count_matrix_builds(monkeypatch):
    builds = []
    original = RationalMatrix.from_columns

    def counting(columns, rows):
        builds.append(len(columns))
        return original(columns, rows)

    monkeypatch.setattr(RationalMatrix, "from_columns", staticmethod(counting))
    return builds


@pytest.mark.parametrize(
    "index, kernel_dim, classification",
    [(3, 2, Classification.NOT_RIGID), (0, 3, Classification.INFINITESIMALLY_RIGID)],
)
def test_certify_cp_builds_the_generator_matrix_once(monkeypatch, index, kernel_dim, classification):
    # The kernel, the relint LP and (side A of fixture index 3, no witness)
    # the lineality LP all read one generator matrix.
    from nmfrigid.cpr import SymmetricFactor, build_skew_generators, certify_cp

    factor = SymmetricFactor(RIGID_5X5[index].pair().a)
    gens = build_skew_generators(factor)
    assert len(nullspace_basis(gens.matrix())) == kernel_dim
    builds = count_matrix_builds(monkeypatch)
    assert certify_cp(factor).classification is classification
    assert builds == [gens.count]


def test_certify_with_a_small_kernel_builds_no_fraction_matrix(monkeypatch):
    # A kernel of dimension at most one decides the cone from the integer
    # columns, and the V-slice and Kruskal stages read them too: rigid
    # fixtures (d = 1), the partially rigid lifted demo (d = 1), twelve-zero
    # variants (d = 0) and CP factors with d <= 1 build no Fraction matrix.
    from nmfrigid.cpr import certify_cp

    subjects = [fx.pair() for fx in RIGID_5X5] + [lift_demo_lifted_pair(), *twelve_zero_variants(RIGID_5X5[0].pair())]
    factors = [SymmetricFactor(fx.pair().b.transpose()) for fx in RIGID_5X5]
    factors += [SymmetricFactor(fx.pair().a) for fx in RIGID_5X5[11:]]
    builds = count_matrix_builds(monkeypatch)
    classes = {certify(pair).classification for pair in subjects}
    classes |= {certify_cp(factor).classification for factor in factors}
    assert classes == {
        Classification.INFINITESIMALLY_RIGID,
        Classification.PARTIALLY_INFINITESIMALLY_RIGID,
        Classification.INTERIOR_CERTIFIED,
        Classification.NOT_RIGID,
    }
    assert builds == []


@pytest.mark.parametrize(
    "a_rows, b_rows, rigid",
    [
        ([[0, 3], [4, 0]], [[9, 0], [0, 8]], True),
        ([[0, 5], [7, 0]], [[4, 3, 9], [0, 0, 4]], False),
    ],
)
def test_accept_test_builds_the_generator_matrix_once(monkeypatch, a_rows, b_rows, rigid):
    # Span rank r^2 - r with a two-dimensional kernel: the relint LP runs on
    # the matrix the kernel came from.
    pair = pair_from(a_rows, b_rows)
    gens = build_dual_generators(pair)
    assert len(nullspace_basis(gens.matrix())) == 2
    builds = count_matrix_builds(monkeypatch)
    assert is_infinitesimally_rigid(pair.a.row_list(), pair.b.row_list()) is rigid
    assert builds == [gens.count]


def test_kernel_search_ranks_no_more_subsets_than_the_budget(monkeypatch):
    # In the subset loop each subset is one rank, of its own columns or of
    # the kernel block outside it, and the search stops before the one that
    # would pass the budget: at every budget it ranks at most that many
    # blocks, and exactly the threshold's worth once it answers.
    from nmfrigid import rigidity

    # Circuits would answer these small inputs with no rank: a cap of 0
    # forces the subset loop.
    monkeypatch.setattr(rigidity, "_CIRCUIT_CAP", 0)
    calls = 0
    real_rank = rigidity.rank

    def counting(matrix):
        nonlocal calls
        calls += 1
        return real_rank(matrix)

    monkeypatch.setattr(rigidity, "rank", counting)
    rng = random.Random(406)
    checked = 0
    while checked < 40:
        height = rng.randint(1, 4)
        cols = tuple(
            tuple(Fraction(rng.choice((0, 0, 1, -1, 2))) for _ in range(height))
            for _ in range(rng.randint(height + 3, 8))
        )
        kernel = nullspace_basis(RationalMatrix.from_columns(cols, height))
        if len(kernel) < 3:
            continue
        answer, threshold = primal_kruskal(cols, 10**6)
        for budget in range(threshold + 2):
            calls = 0
            got = kruskal_rank_of_columns(cols, budget, kernel=kernel)
            assert got == (answer if budget >= threshold else None)
            assert calls == min(budget, threshold)
        checked += 1
