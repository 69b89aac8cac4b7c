"""Cross-checks between independent characterizations of the same facts.

The certification path classifies through the generator cone (rank,
lineality, relative-interior witness).  The deformation cone W it reasons
about also has a direct definition: matrices D whose pairing with every
generator is nonnegative.  These tests probe W directly with free-variable
feasibility systems and confirm both routes agree, instance by instance.
The canonical form is likewise compared against a literal minimum over the
whole symmetry group.
"""

import itertools
import random
from fractions import Fraction

from nmfrigid.cone import lp_feasible
from nmfrigid.exactlin import RationalMatrix, matmul
from nmfrigid.fixtures import RIGID_5X5
from nmfrigid.patterns import ZeroPattern, canonical_form
from nmfrigid.rigidity import Classification, build_dual_generators, certify
from reference_data import circulant_pair, lift_demo_lifted_pair
from test_exactlin import matvec, zero_matrix
from test_rigidity import pair_from, rand_pair


def _free_variable_system(vectors, coords, pinned=None):
    """Equality rows for: <g, y> - slack_g = 0 for each g, plus optionally
    y[pinned_coord] * sign - excess = 1; variables are y split into
    positive and negative parts followed by one slack per generator (and
    the excess).  Returns (matrix_rows, rhs)."""
    k = len(coords)
    rows = []
    rhs = []
    n_slack = len(vectors)
    extra = 1 if pinned is not None else 0
    width = 2 * k + n_slack + extra
    for g_idx, vec in enumerate(vectors):
        row = [Fraction(0)] * width
        for c_idx, coord in enumerate(coords):
            row[c_idx] = vec[coord]
            row[k + c_idx] = -vec[coord]
        row[2 * k + g_idx] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(0))
    if pinned is not None:
        coord_idx, sign = pinned
        row = [Fraction(0)] * width
        row[coord_idx] = sign
        row[k + coord_idx] = -sign
        row[2 * k + n_slack] = Fraction(-1)
        rows.append(row)
        rhs.append(Fraction(1))
    return rows, tuple(rhs)


def deformation_cone_has_offdiagonal_direction(pair) -> bool:
    """Directly search W for a nonzero zero-diagonal element.

    W is cut out by <g, D> >= 0 over all generators; the diagonal never
    appears in any generator, so W splits off the diagonal and the
    factorization is rigid exactly when no nonzero off-diagonal D survives.
    A nonzero cone element can be scaled until some coordinate reaches 1 in
    absolute value, so it suffices to pin each coordinate to each sign.
    """
    r = pair.r
    gens = [v for v in build_dual_generators(pair).vectors if any(v)]
    coords = [i * r + j for i in range(r) for j in range(r) if i != j]
    for coord_idx in range(len(coords)):
        for sign in (Fraction(1), Fraction(-1)):
            rows, rhs = _free_variable_system(gens, coords, pinned=(coord_idx, sign))
            width = len(rows[0])
            system = RationalMatrix.from_rows(rows)
            if lp_feasible(system, rhs, (Fraction(0),) * width) is not None:
                return True
    return False


def deformation_cone_full_dimensional(pair) -> bool:
    """Directly test whether W contains an interior point.

    W is full dimensional exactly when some D satisfies every generator
    inequality strictly; by scaling, <g, D> >= 1 for all nonzero g.
    """
    r = pair.r
    gens = [v for v in build_dual_generators(pair).vectors if any(v)]
    if not gens:
        return True
    coords = list(range(r * r))
    rows, _ = _free_variable_system(gens, coords)
    rhs = (Fraction(1),) * len(gens)
    width = len(rows[0])
    system = RationalMatrix.from_rows(rows)
    return lp_feasible(system, rhs, (Fraction(0),) * width) is not None


def test_rigidity_matches_direct_deformation_probe():
    rng = random.Random(41)
    rigid_seen = 0
    for _ in range(150):
        pair = rand_pair(rng)
        cert = certify(pair, kruskal_budget=0)
        has_motion = deformation_cone_has_offdiagonal_direction(pair)
        is_rigid = cert.classification is Classification.INFINITESIMALLY_RIGID
        assert is_rigid == (not has_motion), (pair.a, pair.b)
        rigid_seen += is_rigid
    assert rigid_seen > 0


def test_rigidity_probe_on_reference_inputs():
    assert not deformation_cone_has_offdiagonal_direction(RIGID_5X5[0].pair())
    assert deformation_cone_has_offdiagonal_direction(circulant_pair())
    assert deformation_cone_has_offdiagonal_direction(lift_demo_lifted_pair())


def test_interior_matches_direct_fullness_probe():
    rng = random.Random(42)
    full_seen = 0
    for _ in range(150):
        pair = rand_pair(rng)
        cert = certify(pair, kruskal_budget=0)
        full = deformation_cone_full_dimensional(pair)
        assert full == (cert.dim_w == pair.r * pair.r), (pair.a, pair.b)
        assert full == (cert.lineality_dim == 0)
        full_seen += full
    assert full_seen > 0


def test_partially_rigid_basis_spans_square_zero_space():
    rng = random.Random(43)
    cert = certify(lift_demo_lifted_pair(), kruskal_budget=0)
    assert cert.classification is Classification.PARTIALLY_INFINITESIMALLY_RIGID
    size = cert.v_basis[0].rows
    zero = zero_matrix(size, size)
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in cert.v_basis]
        data = [Fraction(0)] * (size * size)
        for c, mat in zip(coeffs, cert.v_basis):
            for idx, x in enumerate(mat.data):
                data[idx] += c * x
        combo = RationalMatrix(size, size, tuple(data))
        assert matmul(combo, combo) == zero


# ---------------------------------------------------------------------------
# Canonical form against the literal group minimum
# ---------------------------------------------------------------------------

def _flat_encoding(pattern: ZeroPattern) -> tuple[int, ...]:
    return tuple(
        int(x) for row in pattern.zeros_a for x in row
    ) + tuple(int(x) for row in pattern.zeros_b for x in row)


def _orbit_minimum(pattern: ZeroPattern) -> tuple[int, ...]:
    m, n, r = pattern.m, pattern.n, pattern.r
    candidates = [pattern]
    if m == n:
        za = tuple(tuple(pattern.zeros_b[j][i] for j in range(r)) for i in range(n))
        zb = tuple(tuple(pattern.zeros_a[j][i] for j in range(m)) for i in range(r))
        candidates.append(ZeroPattern(n, m, r, za, zb))
    best = None
    for base in candidates:
        for rp in itertools.permutations(range(base.m)):
            for ip in itertools.permutations(range(r)):
                za = tuple(
                    tuple(base.zeros_a[rp[i]][ip[j]] for j in range(r))
                    for i in range(base.m)
                )
                for cp in itertools.permutations(range(base.n)):
                    zb = tuple(
                        tuple(base.zeros_b[ip[i]][cp[l]] for l in range(base.n))
                        for i in range(r)
                    )
                    enc = tuple(int(x) for row in za for x in row) + tuple(
                        int(x) for row in zb for x in row
                    )
                    if best is None or enc < best:
                        best = enc
    return best


def rand_pattern(rng, m, n, r, zero_prob=0.35):
    while True:
        try:
            return ZeroPattern(
                m, n, r,
                tuple(tuple(rng.random() < zero_prob for _ in range(r)) for _ in range(m)),
                tuple(tuple(rng.random() < zero_prob for _ in range(n)) for _ in range(r)),
            )
        except ValueError:
            continue


def test_canonical_form_is_the_literal_orbit_minimum_square():
    rng = random.Random(44)
    for _ in range(80):
        pattern = rand_pattern(rng, 3, 3, 2)
        assert _flat_encoding(canonical_form(pattern)) == _orbit_minimum(pattern)


def test_canonical_form_is_the_literal_orbit_minimum_rectangular():
    rng = random.Random(45)
    for _ in range(60):
        pattern = rand_pattern(rng, 4, 2, 2)
        assert _flat_encoding(canonical_form(pattern)) == _orbit_minimum(pattern)
    for _ in range(20):
        pattern = rand_pattern(rng, 3, 4, 3)
        assert _flat_encoding(canonical_form(pattern)) == _orbit_minimum(pattern)


def test_canonical_form_is_the_literal_orbit_minimum_square_r3():
    rng = random.Random(46)
    for _ in range(20):
        pattern = rand_pattern(rng, 3, 3, 3)
        assert _flat_encoding(canonical_form(pattern)) == _orbit_minimum(pattern)


# ---------------------------------------------------------------------------
# LP solutions are always exact
# ---------------------------------------------------------------------------

def test_lp_constructed_feasible_systems_and_exact_solutions():
    rng = random.Random(47)
    for _ in range(200):
        k = rng.randint(1, 4)
        p = rng.randint(1, 5)
        system = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(k)]
        )
        bounds = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p))
        witness_point = tuple(b + Fraction(rng.randint(0, 3)) for b in bounds)
        rhs = matvec(system, witness_point)
        solution = lp_feasible(system, rhs, bounds)
        assert solution is not None  # witness_point is feasible by construction
        assert matvec(system, solution) == rhs
        assert all(x >= b for x, b in zip(solution, bounds))


def test_lp_answers_are_self_verifying_on_random_systems():
    rng = random.Random(48)
    feasible = infeasible = 0
    for _ in range(200):
        k = rng.randint(1, 4)
        p = rng.randint(1, 5)
        system = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(k)]
        )
        rhs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(k))
        bounds = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p))
        solution = lp_feasible(system, rhs, bounds)
        if solution is None:
            infeasible += 1
            continue
        feasible += 1
        assert matvec(system, solution) == rhs
        assert all(x >= b for x, b in zip(solution, bounds))
    assert feasible > 0 and infeasible > 0
