import itertools
import random
from fractions import Fraction

import pytest

from nmfrigid import cone as cone_module
from nmfrigid.cone import (
    lineality_dimension,
    lp_feasible,
    verify_witness,
    zero_in_relative_interior,
)
from nmfrigid.cpr import SymmetricFactor, build_skew_generators, certify_cp
from nmfrigid.exactlin import (
    RationalMatrix,
    nullspace_basis,
    rank,
    vec_neg,
    zero_vector,
)
from nmfrigid.fixtures import RIGID_5X5, circulant_pair
from nmfrigid.rigidity import FactorizationPair, build_dual_generators, certify
from test_exactlin import is_zero_vector, matvec, vec_dot
from test_rigidity import twelve_zero_variants


def frac_vec(*values):
    return tuple(Fraction(v) for v in values)


def cone_of(dim, gens):
    """Generator matrix of the cone spanned by `gens` in R^dim."""
    return RationalMatrix.from_columns(gens, dim)


def generators_of(cone: RationalMatrix):
    return [cone.column(j) for j in range(cone.cols)]


def rand_cone(rng, dim=3, max_gens=6):
    gens = [
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim))
        for _ in range(rng.randint(0, max_gens))
    ]
    return cone_of(dim, gens)


def member(cone: RationalMatrix, v) -> bool:
    """Reference membership: v is a nonnegative combination of the
    generators exactly when one LP over their coefficients is feasible."""
    return lp_feasible(cone, v, zero_vector(cone.cols)) is not None


def reference_lineality(cone: RationalMatrix, is_member=member) -> int:
    """Reference lineality: one membership test of -g per generator g, then
    the rank of the generators that pass."""
    two_sided = [g for g in generators_of(cone) if is_member(cone, vec_neg(g))]
    if not two_sided:
        return 0
    return rank(cone_of(cone.rows, two_sided))


def oracle_member(cone: RationalMatrix, v) -> bool:
    """Independent membership test: Caratheodory over independent subsets.

    Any member of the cone is a nonnegative combination of at most dim
    linearly independent generators, so it suffices to solve the exact
    linear system on every independent subset of size <= dim.
    """
    if all(x == 0 for x in v):
        return True
    gens = generators_of(cone)
    dim = cone.rows
    for size in range(1, min(dim, len(gens)) + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            cols = [gens[i] for i in subset]
            m = RationalMatrix.from_columns(cols, dim)
            if rank(m) != size:
                continue
            solution = _solve_exact(m, v)
            if solution is not None and all(x >= 0 for x in solution):
                return True
    return False


def _solve_exact(m: RationalMatrix, v):
    # Unique solution of m x = v for full-column-rank m, or None.
    aug = RationalMatrix.from_columns([m.column(j) for j in range(m.cols)] + [tuple(v)], m.rows)
    if rank(aug) != m.cols:
        return None
    work = [list(aug.row(i)) for i in range(aug.rows)]
    piv_rows = []
    piv_row = 0
    for col in range(m.cols):
        hit = next((i for i in range(piv_row, len(work)) if work[i][col]), None)
        if hit is None:
            return None
        work[piv_row], work[hit] = work[hit], work[piv_row]
        pivot = work[piv_row][col]
        work[piv_row] = [x / pivot for x in work[piv_row]]
        for i in range(len(work)):
            if i != piv_row and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[piv_row])]
        piv_rows.append(piv_row)
        piv_row += 1
    return tuple(work[i][-1] for i in range(m.cols))


def test_lp_two_positive_vars_cannot_sum_to_zero():
    eq = RationalMatrix.from_rows([[1, 1]])
    assert lp_feasible(eq, frac_vec(0), frac_vec(1, 1)) is None


def test_lp_difference_feasible():
    eq = RationalMatrix.from_rows([[1, -1]])
    x = lp_feasible(eq, frac_vec(0), frac_vec(1, 1))
    assert x is not None
    assert x[0] - x[1] == 0 and x[0] >= 1 and x[1] >= 1


def test_lp_circulant_generators_all_ones_is_feasible():
    gens = build_dual_generators(circulant_pair())
    m = gens.matrix()
    x = lp_feasible(m, frac_vec(*([0] * 9)), frac_vec(*([1] * 6)))
    assert x is not None
    # The all-ones point itself satisfies the system: the three positive
    # generators sum to minus the sum of the three negative ones.
    ones = frac_vec(*([1] * 6))
    assert all(vec_dot(m.row(i), ones) == 0 for i in range(9))


def test_lp_dimension_mismatch():
    eq = RationalMatrix.from_rows([[1, 1]])
    with pytest.raises(ValueError):
        lp_feasible(eq, frac_vec(0, 0), frac_vec(1, 1))


def test_lp_rejects_floats():
    # 0.3 and 0.1 are not 3/10 and 1/10; an exact LP must refuse them
    # rather than answer for the rounded values.
    eq = RationalMatrix.from_rows([[1, 1, 1]])
    with pytest.raises(TypeError):
        lp_feasible(eq, (0.3,), frac_vec("1/10", "1/10", "1/10"))
    with pytest.raises(TypeError):
        lp_feasible(eq, frac_vec("3/10"), (0.1, 0.1, 0.1))
    assert lp_feasible(eq, ("3/10",), ("1/10", "1/10", "1/10")) == frac_vec(
        "1/10", "1/10", "1/10"
    )


def _fraction_simplex(equalities, rhs, lower_bounds):
    """Reference: the same phase-1 Bland simplex pivoting on a Fraction tableau."""
    n_rows, n_cols = equalities.rows, equalities.cols
    shifted = [
        rhs[i] - sum((equalities[i, j] * lower_bounds[j] for j in range(n_cols)), Fraction(0))
        for i in range(n_rows)
    ]
    if n_cols == 0:
        return () if all(b == 0 for b in shifted) else None
    table = []
    for i in range(n_rows):
        row, b = list(equalities.row(i)), shifted[i]
        if b < 0:
            row, b = [-x for x in row], -b
        row.extend(Fraction(int(k == i)) for k in range(n_rows))
        table.append(row + [b])
    n_total = n_cols + n_rows
    basis = [n_cols + i for i in range(n_rows)]
    cost = [Fraction(int(j >= n_cols)) for j in range(n_total)] + [Fraction(0)]
    for row in table:
        cost = [c - x for c, x in zip(cost, row)]
    while True:
        entering = next((j for j in range(n_total) if cost[j] < 0), None)
        if entering is None:
            break
        leaving, best = None, None
        for i in range(n_rows):
            if table[i][entering] > 0:
                ratio = table[i][-1] / table[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    leaving, best = i, ratio
        pivot_row = [x / table[leaving][entering] for x in table[leaving]]
        table[leaving] = pivot_row
        for i in range(n_rows):
            if i != leaving:
                f = table[i][entering]
                table[i] = [a - f * b for a, b in zip(table[i], pivot_row)]
        f = cost[entering]
        cost = [a - f * b for a, b in zip(cost, pivot_row)]
        basis[leaving] = entering
    if cost[-1] != 0:
        return None
    y = [Fraction(0)] * n_cols
    for i, var in enumerate(basis):
        if var < n_cols:
            y[var] = table[i][-1]
    return tuple(y[j] + lower_bounds[j] for j in range(n_cols))


def _random_lp(rng, max_rows=4, max_cols=6):
    """A small system drawn to hit empty shapes, fractions, signs and ties."""
    n_rows, n_cols = rng.randint(0, max_rows), rng.randint(0, max_cols)

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))

    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and rng.random() < 0.3:
        rows[-1] = [2 * x for x in rows[0]]  # parallel rows tie in the ratio test
    bounds = tuple(rng.choice((Fraction(0), Fraction(1), entry())) for _ in range(n_cols))
    kind = rng.randrange(3)
    if kind == 0:
        rhs = zero_vector(n_rows)  # fully degenerate: every ratio is zero
    elif kind == 1:
        rhs = tuple(entry() for _ in range(n_rows))
    else:  # feasible by construction: rhs = A @ x for some x >= bounds
        point = [b + rng.randint(0, 2) * rng.randint(0, 1) for b in bounds]
        rhs = tuple(sum((x * p for x, p in zip(row, point)), Fraction(0)) for row in rows)
    return RationalMatrix(n_rows, n_cols, tuple(x for row in rows for x in row)), rhs, bounds


def test_lp_matches_fraction_simplex_on_random_systems():
    rng = random.Random(20190611)
    shapes, feasible = set(), 0
    for _ in range(3000):
        system, rhs, bounds = _random_lp(rng)
        expected = _fraction_simplex(system, rhs, bounds)
        assert lp_feasible(system, rhs, bounds) == expected
        shapes.add((system.rows, system.cols))
        feasible += expected is not None
    assert (0, 0) in shapes and len(shapes) == 35
    assert 1000 < feasible < 2500


def test_lp_with_lazy_pivots_matches_fraction_simplex_on_larger_systems(monkeypatch):
    # With up to 7 rows, most pivot columns miss a row, so rows wait below
    # the last pivot's level and pivot rows are brought up to it first.
    raised = []

    def spy(rows, levels, p, col, prev):
        raised.append(levels[p] != prev)
        return eliminate(rows, levels, p, col, prev)

    eliminate = cone_module.eliminate
    monkeypatch.setattr(cone_module, "eliminate", spy)
    rng = random.Random(20190612)
    for _ in range(400):
        system, rhs, bounds = _random_lp(rng, 7, 9)
        assert lp_feasible(system, rhs, bounds) == _fraction_simplex(system, rhs, bounds)
    assert len(raised) > 500 and sum(raised) > 50


def test_lp_shift_matches_fraction_simplex_past_64_bit_denominators():
    # The shifted right-hand side is scaled by d = lcm(scales[j] * den l_j,
    # den b_i).  Column entries have denominators 2**65 and 3**41, past
    # 2**64; lower bounds, fractional and negative, have 13 and 17**16, and
    # the right-hand sides 5, 7 and 11**19, coprime to every column scale.
    rng = random.Random(20191105)

    def draw(dens, low, high, zero=0.0):
        if rng.random() < zero:
            return Fraction(0)
        return Fraction(rng.randint(low, high), rng.choice(dens))

    feasible = negative_bounds = 0
    for _ in range(300):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 6)
        system = RationalMatrix.from_rows(
            [[draw((1, 2**65, 3**41), -9, 9, 0.3) for _ in range(n_cols)] for _ in range(n_rows)]
        )
        bounds = tuple(draw((1, 13, 17**16), -40, 40, 0.2) for _ in range(n_cols))
        rhs = tuple(draw((5, 7, 11**19), -50, 50) for _ in range(n_rows))
        expected = _fraction_simplex(system, rhs, bounds)
        assert lp_feasible(system, rhs, bounds) == expected
        feasible += expected is not None
        negative_bounds += any(x < 0 and x.denominator > 1 for x in bounds)
    assert 60 < feasible < 240 and negative_bounds > 100


def _cap_pivots(monkeypatch, cap):
    """The list that `lp_feasible` appends one entry to per pivot; past `cap`
    pivots it fails, so a simplex that cycles fails the test, not hangs it."""
    pivots = []

    def capped(*args):
        pivots.append(None)
        assert len(pivots) <= cap, "the simplex is cycling"
        return eliminate(*args)

    eliminate = cone_module.eliminate
    monkeypatch.setattr(cone_module, "eliminate", capped)
    return pivots


def test_lp_leaving_tie_goes_to_the_lowest_basic_index(monkeypatch):
    # x0 enters on row 2.  Then x2 enters at ratio 0 on row 0, whose basic
    # variable is an artificial, and on row 2, whose basic variable is x0:
    # Bland's rule sends x0 out.  Sending out the artificial, the first of
    # the tied rows, ends at (0, 1, 1/3, 1/3) instead.
    pivots = _cap_pivots(monkeypatch, 20)
    system = RationalMatrix.from_rows([[0, -1, 3, 0], [1, 0, 3, 0], [3, 0, 1, -1]])
    rhs, bounds = frac_vec(0, 1, 0), zero_vector(4)
    assert lp_feasible(system, rhs, bounds) == frac_vec(1, 0, 0, 3)
    assert _fraction_simplex(system, rhs, bounds) == frac_vec(1, 0, 0, 3)
    assert len(pivots) == 4


def test_lp_terminates_on_beales_cycling_example(monkeypatch):
    # Beale (1955): min -3/4 x4 + 20 x5 - 1/2 x6 + 6 x7 subject to the first
    # three rows with slacks x1, x2, x3, a degenerate vertex on which the
    # largest-coefficient rule cycles.  The last row asks for the optimum,
    # -1/20, with slack s.  Columns: x4 x5 x6 x7 x1 x2 x3 s.
    pivots = _cap_pivots(monkeypatch, 50)
    system = RationalMatrix.from_rows(
        [
            ["1/4", -8, -1, 9, 1, 0, 0, 0],
            ["1/2", -12, "-1/2", 3, 0, 1, 0, 0],
            [0, 0, 1, 0, 0, 0, 1, 0],
            ["-3/4", 20, "-1/2", 6, 0, 0, 0, 1],
        ]
    )
    rhs, bounds = frac_vec(0, 0, 1, "-1/20"), zero_vector(8)
    point = frac_vec("11/10", "1/32", 1, "13/120", 0, 0, 0, 0)
    assert lp_feasible(system, rhs, bounds) == point
    assert _fraction_simplex(system, rhs, bounds) == point
    assert len(pivots) == 6


def test_relint_witness_for_opposite_rays():
    cone = cone_of(2, (frac_vec(1, 0), frac_vec(-1, 0)))
    witness = zero_in_relative_interior(cone)
    assert witness is not None
    assert verify_witness(cone, witness)


def test_relint_no_witness_for_single_ray():
    cone = cone_of(2, (frac_vec(1, 0),))
    assert zero_in_relative_interior(cone) is None


def test_relint_empty_generators():
    # The cone {0} is a linear space: its witness is (), which is not None.
    cone = cone_of(3, ())
    witness = zero_in_relative_interior(cone)
    assert witness == () and witness is not None
    assert verify_witness(cone, witness)


def test_lineality_examples():
    e1, me1, e2 = frac_vec(1, 0), frac_vec(-1, 0), frac_vec(0, 1)
    assert lineality_dimension(cone_of(2, (e1, me1, e2))) == 1
    assert lineality_dimension(cone_of(2, ())) == 0


def test_lineality_of_circulant_cone_is_five():
    gens = build_dual_generators(circulant_pair())
    assert lineality_dimension(gens.matrix()) == 5


def test_lineality_of_rigid_fixture_cone_is_twelve():
    gens = build_dual_generators(RIGID_5X5[0].pair())
    assert lineality_dimension(gens.matrix()) == 12


def _seeded_cone(rng):
    """A cone in dimension 0 to 4 with 0 to 7 generators, drawn to include
    zero generators, duplicates and antipodal pairs."""
    dim, gens = rng.randint(0, 4), []
    for _ in range(rng.randint(0, 7)):
        kind = rng.random()
        if gens and kind < 0.1:
            gens.append(rng.choice(gens))
        elif gens and kind < 0.35:
            gens.append(vec_neg(rng.choice(gens)))
        elif kind < 0.4:
            gens.append(zero_vector(dim))
        else:
            gens.append(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim)))
    return dim, gens


def test_lineality_matches_per_generator_reference_on_seeded_cones():
    rng = random.Random(20191104)
    seen = dict.fromkeys(("empty", "zero", "duplicate", "antipodal", "dim0", "positive"), 0)
    for _ in range(3000):
        dim, gens = _seeded_cone(rng)
        cone = cone_of(dim, gens)
        expected = reference_lineality(cone)
        assert lineality_dimension(cone) == expected
        seen["empty"] += not gens
        seen["zero"] += any(not any(g) for g in gens)
        seen["duplicate"] += len(set(gens)) < len(gens)
        seen["antipodal"] += any(vec_neg(g) in gens for g in gens if any(g))
        seen["dim0"] += dim == 0
        seen["positive"] += 0 < expected < dim
    assert all(count >= 100 for count in seen.values()), seen


def test_lineality_matches_caratheodory_oracle():
    rng = random.Random(11)
    for _ in range(120):
        cone = rand_cone(rng, dim=3, max_gens=5)
        assert lineality_dimension(cone) == reference_lineality(cone, oracle_member)


def _count_lps(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(None)
        return lp_feasible(*args)

    monkeypatch.setattr(cone_module, "lp_feasible", counting)
    return calls


def test_lineality_lp_count_on_fixture_cp_factors(monkeypatch):
    # A and B^T of each fixture: 11 factors have a kernel of dimension >= 2
    # and so one relint LP each; the 4 of them without a witness add one
    # lineality LP each, which finds no two-sided generator.
    calls = _count_lps(monkeypatch)
    for fx in RIGID_5X5:
        pair = fx.pair()
        for a in (pair.a, pair.b.transpose()):
            certify_cp(SymmetricFactor(a), kruskal_budget=0)
    assert len(calls) == 15


def test_lineality_of_a_linear_space_takes_one_lp(monkeypatch):
    # The first LP finds every generator two-sided, so no second LP runs.
    calls = _count_lps(monkeypatch)
    assert lineality_dimension(cone_of(2, (frac_vec(1, 0), frac_vec(-1, 0)))) == 1
    assert len(calls) == 1


def test_lineality_of_a_one_sided_kernel_takes_one_lp(monkeypatch):
    # Side A of fixture 04 has a two-dimensional kernel and no witness: the
    # relint LP fails, and one lineality LP finds no two-sided generator.
    (fx,) = (fx for fx in RIGID_5X5 if fx.name == "rigid-5x5-04")
    factor = SymmetricFactor(fx.pair().a)
    assert len(nullspace_basis(build_skew_generators(factor).matrix())) == 2
    calls = _count_lps(monkeypatch)
    cert = certify_cp(factor, kruskal_budget=0)
    assert (cert.relint_witness, cert.lineality_dim, len(calls)) == (None, 0, 2)


def test_member_examples():
    cone = cone_of(2, (frac_vec(1, 0),))
    assert member(cone, frac_vec(0, 0))
    assert not member(cone, frac_vec(0, 1))
    gens = build_dual_generators(circulant_pair())
    assert member(gens.matrix(), vec_neg(gens.vectors[0]))


def test_member_generators_always_inside():
    rng = random.Random(7)
    for _ in range(50):
        cone = rand_cone(rng)
        for g in generators_of(cone):
            assert member(cone, g)


def test_witness_iff_lineality_equals_rank():
    rng = random.Random(8)
    for _ in range(120):
        cone = rand_cone(rng, dim=3, max_gens=5)
        witness = zero_in_relative_interior(cone)
        span = rank(cone)
        lin = lineality_dimension(cone)
        assert (witness is not None) == (lin == span)
        if witness is not None:
            assert verify_witness(cone, witness)


def test_verdicts_invariant_under_generator_permutation():
    rng = random.Random(9)
    for _ in range(60):
        cone = rand_cone(rng, dim=3, max_gens=5)
        perm = list(range(cone.cols))
        rng.shuffle(perm)
        shuffled = cone_of(3, [cone.column(i) for i in perm])
        assert lineality_dimension(cone) == lineality_dimension(shuffled)
        assert (zero_in_relative_interior(cone) is None) == (
            zero_in_relative_interior(shuffled) is None
        )
        probe = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert member(cone, probe) == member(shuffled, probe)


def test_member_matches_caratheodory_oracle():
    rng = random.Random(10)
    checked = 0
    for _ in range(200):
        cone = rand_cone(rng, dim=3, max_gens=6)
        probe = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert member(cone, probe) == oracle_member(cone, probe)
        checked += 1
    assert checked == 200


# ---------------------------------------------------------------------------
# Kernel shortcut of the certification against the LP reference
# ---------------------------------------------------------------------------

def realizations_of_fixture_patterns(seed, per_pattern):
    """Seeded full-rank realizations of every fixture's zero pattern, half
    with integer entries and half with rational ones."""
    rng = random.Random(seed)

    def draw(rational):
        if rational:
            return Fraction(rng.randint(1, 9), rng.randint(1, 9))
        return Fraction(rng.randint(1, 1000))

    pairs = []
    for fx in RIGID_5X5:
        pattern = fx.pair().zero_pattern()
        made = 0
        while made < per_pattern:
            rational = made % 2 == 1
            a = [[0 if z else draw(rational) for z in row] for row in pattern.zeros_a]
            b = [[0 if z else draw(rational) for z in row] for row in pattern.zeros_b]
            try:
                pairs.append(
                    FactorizationPair(RationalMatrix.from_rows(a), RationalMatrix.from_rows(b))
                )
            except ValueError:
                continue
            made += 1
    return pairs


def test_kernel_witness_equals_lp_witness_on_fixture_patterns():
    pairs = [fx.pair() for fx in RIGID_5X5] + realizations_of_fixture_patterns(17, 4)
    verdicts = set()
    for pair in pairs:
        gens = build_dual_generators(pair)
        assert len(nullspace_basis(gens.matrix())) == 1
        reference = lp_feasible(
            gens.matrix(), zero_vector(gens.ambient_dim), (Fraction(1),) * gens.count
        )
        witness = certify(pair, kruskal_budget=0).relint_witness
        assert witness == reference
        verdicts.add(reference is not None)
    assert verdicts == {True, False}


def _verify_witness_reference(generators, coefficients):
    """Reference: the witness check on Fractions, with `matvec`."""
    if len(coefficients) != generators.cols or any(c < 1 for c in coefficients):
        return False
    return is_zero_vector(matvec(generators, coefficients))


def _witness_subjects():
    """(generator matrix, certified witness or None) of the 15 fixtures,
    their 195 twelve-zero variants and the 30 CP factors, A and B^T of each
    fixture."""
    for fx in RIGID_5X5:
        pair = fx.pair()
        for subject in (pair, *twelve_zero_variants(pair)):
            cert = certify(subject, kruskal_budget=0)
            yield build_dual_generators(subject).matrix(), cert.relint_witness
        for a in (pair.a, pair.b.transpose()):
            factor = SymmetricFactor(a)
            cert = certify_cp(factor, kruskal_budget=0)
            yield build_skew_generators(factor).matrix(), cert.relint_witness


def test_verify_witness_matches_the_fraction_reference_and_refuses_tampering():
    rng = random.Random(20191106)
    subjects = witnessed = 0
    for matrix, witness in _witness_subjects():
        subjects += 1
        tries = [
            (Fraction(1),) * matrix.cols,
            tuple(Fraction(rng.randint(3, 12), rng.randint(1, 3)) for _ in range(matrix.cols)),
        ]
        if witness is not None:
            witnessed += 1
            j = next(j for j in range(matrix.cols) if any(matrix.column(j)))
            raised = witness[:j] + (witness[j] + 1,) + witness[j + 1 :]
            lowered = witness[:j] + (Fraction(1, 2),) + witness[j + 1 :]
            assert verify_witness(matrix, witness)
            assert not verify_witness(matrix, raised)
            assert not verify_witness(matrix, lowered)
            tries += [witness, raised, lowered]
        for coefficients in tries:
            assert verify_witness(matrix, coefficients) is _verify_witness_reference(matrix, coefficients)
    assert (subjects, witnessed) == (240, 23)
