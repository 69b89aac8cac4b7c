import random
import sys
from fractions import Fraction

import pytest

from nmfrigid.exactlin import (
    RationalMatrix,
    _echelon,
    eliminate,
    integer_multiple,
    kernel_vector,
    matmul,
    nullspace_basis,
    rank,
)
from nmfrigid.fixtures import RIGID_5X5, circulant_pair
from nmfrigid.rigidity import build_dual_generators


def vec_dot(a, b):
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def is_zero_vector(a):
    return all(x == 0 for x in a)


def matvec(m: RationalMatrix, v):
    """Fraction reference product of a matrix and a vector."""
    if len(v) != m.cols:
        raise ValueError(f"vector of length {len(v)} against {m.rows}x{m.cols} matrix")
    return tuple(vec_dot(m.row(i), v) for i in range(m.rows))


def rand_matrix(rng, rows, cols, lo=-4, hi=4, denom=3):
    return RationalMatrix.from_rows(
        [
            [Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_rank_identity():
    assert rank(RationalMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(RationalMatrix.zeros(2, 5)) == 0


def test_rank_of_circulant_generator_matrix():
    # The six dual-cone generators of the symmetric circulant span exactly a
    # 5-dimensional subspace of R^9.
    gens = build_dual_generators(circulant_pair())
    assert gens.matrix().rows == 9 and gens.matrix().cols == 6
    assert rank(gens.matrix()) == 5


def test_nullspace_identity_empty():
    assert nullspace_basis(RationalMatrix.identity(2)) == []


def test_nullspace_one_equation():
    basis = nullspace_basis(RationalMatrix.from_rows([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def test_nullspace_of_circulant_generators_is_one_dimensional():
    gens = build_dual_generators(circulant_pair())
    basis = nullspace_basis(gens.matrix())
    assert len(basis) == 1
    # The single relation uses every generator: all six coordinates nonzero.
    assert all(x != 0 for x in basis[0])


def test_entry_outside_the_matrix_raises():
    m = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m[1, 2] == 6
    for key in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(IndexError, match=r"outside 2x3 matrix"):
            m[key]


def test_matmul_identity():
    m = RationalMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert matmul(RationalMatrix.identity(3), m) == m


def test_matmul_fixture_entries():
    pair = RIGID_5X5[0].pair()
    assert vec_dot(pair.a.row(0), pair.b.column(0)) == 104184
    assert vec_dot(pair.a.row(4), pair.b.column(4)) == 574666


def test_matmul_scalar_fractions():
    a = RationalMatrix.from_rows([[Fraction(2, 3)]])
    b = RationalMatrix.from_rows([[Fraction(3, 4)]])
    assert matmul(a, b)[0, 0] == Fraction(1, 2)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(RationalMatrix.identity(2), RationalMatrix.identity(3))


def test_rank_transpose_agreement():
    rng = random.Random(100)
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert rank(m) == rank(m.transpose())


def test_nullspace_vectors_are_exact_kernel_elements():
    rng = random.Random(101)
    for _ in range(200):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = nullspace_basis(m)
        assert rank(m) + len(basis) == m.cols
        for v in basis:
            assert is_zero_vector(matvec(m, v))


def test_matmul_associativity():
    rng = random.Random(102)
    for _ in range(200):
        p, q, s, t = (rng.randint(1, 3) for _ in range(4))
        a = rand_matrix(rng, p, q)
        b = rand_matrix(rng, q, s)
        c = rand_matrix(rng, s, t)
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


# ---------------------------------------------------------------------------
# Fraction-free elimination against rational Gauss-Jordan
# ---------------------------------------------------------------------------

def fraction_echelon(m):
    # Reference: Gauss-Jordan over Fraction with the library's pivot rule
    # (first nonzero entry in column order), normalizing each pivot to 1.
    work = [list(m.row(i)) for i in range(m.rows)]
    pivots = []
    piv_row = 0
    for col in range(m.cols):
        found = next((i for i in range(piv_row, m.rows) if work[i][col]), None)
        if found is None:
            continue
        work[piv_row], work[found] = work[found], work[piv_row]
        pivot = work[piv_row][col]
        work[piv_row] = [x / pivot for x in work[piv_row]]
        for i in range(m.rows):
            factor = work[i][col]
            if i != piv_row and factor:
                work[i] = [x - factor * y for x, y in zip(work[i], work[piv_row])]
        pivots.append(col)
        piv_row += 1
        if piv_row == m.rows:
            break
    return work, pivots


def oracle_rank(m):
    return len(fraction_echelon(m)[1])


def oracle_nullspace(m):
    work, pivots = fraction_echelon(m)
    basis = []
    for free in (j for j in range(m.cols) if j not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = -work[row_idx][free]
        basis.append(tuple(vec))
    return basis


def assert_same_as_oracle(m):
    assert rank(m) == oracle_rank(m)
    basis = nullspace_basis(m)
    assert basis == oracle_nullspace(m)
    assert all(type(x) is Fraction for v in basis for x in v)


def sparse_rational_matrix(rng, rows, cols):
    # Mostly zeros and repeated rows, so that rank deficiency and free
    # columns are common, with denominators up to 7 and signed entries.
    base = [
        [
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.5 else Fraction(0)
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    for i in range(rows):
        if i and rng.random() < 0.2:
            scale = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            base[i] = [scale * x for x in base[rng.randrange(i)]]
    return RationalMatrix.from_rows(base) if rows else RationalMatrix.zeros(0, cols)


def test_elimination_matches_rational_reference_on_random_matrices():
    rng = random.Random(300)
    for _ in range(3000):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        assert_same_as_oracle(sparse_rational_matrix(rng, rows, cols))


def test_elimination_matches_rational_reference_on_wide_and_tall_matrices():
    rng = random.Random(301)
    for _ in range(150):
        short, long = rng.randint(1, 3), rng.randint(8, 14)
        assert_same_as_oracle(sparse_rational_matrix(rng, short, long))
        assert_same_as_oracle(sparse_rational_matrix(rng, long, short))
        assert_same_as_oracle(rand_matrix(rng, short, long, lo=-50, hi=50, denom=11))


def test_elimination_matches_rational_reference_on_zero_and_empty_matrices():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2)):
        assert_same_as_oracle(RationalMatrix.zeros(rows, cols))
    assert nullspace_basis(RationalMatrix.zeros(0, 2)) == [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    assert rank(RationalMatrix.zeros(3, 0)) == 0


def test_elimination_matches_rational_reference_on_fixture_generators():
    rng = random.Random(302)
    for fx in RIGID_5X5:
        g = build_dual_generators(fx.pair()).matrix()
        assert_same_as_oracle(g)
        assert_same_as_oracle(g.transpose())
        for _ in range(3):
            row_s = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                for _ in range(g.rows)
            ]
            col_s = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(g.cols)]
            scaled = RationalMatrix(
                g.rows,
                g.cols,
                tuple(row_s[i] * g[i, j] * col_s[j] for i in range(g.rows) for j in range(g.cols)),
            )
            assert_same_as_oracle(scaled)
            assert rank(scaled) == 12 and len(nullspace_basis(scaled)) == 1


def test_elimination_accepts_integer_entries():
    m = RationalMatrix(2, 3, (2, 4, 6, 1, 3, 5))
    assert rank(m) == 2
    assert nullspace_basis(m) == nullspace_basis(RationalMatrix.from_rows([[2, 4, 6], [1, 3, 5]]))


# ---------------------------------------------------------------------------
# Forward elimination against fraction-free Gauss-Jordan
# ---------------------------------------------------------------------------

def dense_bareiss_step(rows, p, col, prev):
    # Reference: the dense fraction-free pivot, which rescales every row but
    # `p`, including the rows zero in column `col`; returns the pivot.
    piv = rows[p][col]
    for i, row in enumerate(rows):
        if i != p:
            rows[i] = [(piv * x - row[col] * y) // prev for x, y in zip(row, rows[p])]
    return piv


def gauss_jordan_reference(m):
    # Reference: the fraction-free Gauss-Jordan reduction the library ran
    # before its elimination became forward only.  Every pivot clears its
    # column from all other rows, so the rows end as the reduced row echelon
    # form times the last pivot; returns (rank, kernel basis).
    work = [integer_multiple(m.row(i)) for i in range(m.rows)]
    pivots = []
    prev = 1
    piv_row = 0
    for col in range(m.cols):
        found = next((i for i in range(piv_row, m.rows) if work[i][col]), None)
        if found is None:
            continue
        work[piv_row], work[found] = work[found], work[piv_row]
        prev = dense_bareiss_step(work, piv_row, col, prev)
        pivots.append(col)
        piv_row += 1
        if piv_row == m.rows:
            break
    basis = []
    for free in (j for j in range(m.cols) if j not in pivots):
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = Fraction(-work[row_idx][free], prev)
        basis.append(tuple(vec))
    return len(pivots), basis


def assert_same_as_gauss_jordan(m):
    expected_rank, expected_basis = gauss_jordan_reference(m)
    assert rank(m) == expected_rank
    assert nullspace_basis(m) == expected_basis


def test_forward_elimination_matches_gauss_jordan_on_random_matrices():
    rng = random.Random(400)
    shapes = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(1500)]
    shapes += [(rng.randint(1, 3), rng.randint(9, 16)) for _ in range(100)]  # wide
    shapes += [(rng.randint(9, 16), rng.randint(1, 3)) for _ in range(100)]  # tall
    for rows, cols in shapes:
        assert_same_as_gauss_jordan(sparse_rational_matrix(rng, rows, cols))
    for rows, cols in shapes[:300]:
        assert_same_as_gauss_jordan(rand_matrix(rng, rows, cols, lo=-60, hi=60, denom=13))


EMPTY_AND_ZERO_SHAPES = ((0, 0), (0, 1), (0, 5), (1, 0), (6, 0), (4, 4), (3, 7), (7, 3))


def zero_lined_matrix(rng):
    # A sparse matrix with some whole rows and columns set to zero.
    rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    data = [list(sparse_rational_matrix(rng, 1, cols).row(0)) for _ in range(rows)]
    for i in rng.sample(range(rows), rng.randint(0, rows)):
        data[i] = [Fraction(0)] * cols
    for j in rng.sample(range(cols), rng.randint(0, cols)):
        for row in data:
            row[j] = Fraction(0)
    return RationalMatrix.from_rows(data)


def test_forward_elimination_matches_gauss_jordan_on_zero_lines_and_empty_shapes():
    rng = random.Random(401)
    for rows, cols in EMPTY_AND_ZERO_SHAPES:
        assert_same_as_gauss_jordan(RationalMatrix.zeros(rows, cols))
    for _ in range(300):
        assert_same_as_gauss_jordan(zero_lined_matrix(rng))


# ---------------------------------------------------------------------------
# Lazy pivots against dense Bareiss elimination
# ---------------------------------------------------------------------------

def dense_echelon(work, cols):
    # Reference: forward elimination with the dense step, which rescales the
    # rows zero in the pivot column too; returns what `_echelon` returns.
    echelon, pivots, prev = [], [], 1
    for col in range(cols):
        found = next((i for i, row in enumerate(work) if row[col]), None)
        if found is not None:
            prev = dense_bareiss_step(work, found, col, prev)
            echelon.append(work.pop(found))
            pivots.append(col)
    return echelon, pivots, prev


def test_lazy_echelon_equals_dense_bareiss():
    # Rows, pivot columns and scale, number for number.
    rng = random.Random(403)
    matrices = [RationalMatrix.zeros(rows, cols) for rows, cols in EMPTY_AND_ZERO_SHAPES]
    matrices += [zero_lined_matrix(rng) for _ in range(300)]
    matrices += [sparse_rational_matrix(rng, rng.randint(0, 9), rng.randint(0, 9)) for _ in range(800)]
    matrices += [
        rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), lo=-60, hi=60, denom=13)
        for _ in range(200)
    ]
    for fx in RIGID_5X5:  # sparse columns: one generator per zero
        g = build_dual_generators(fx.pair()).matrix()
        matrices += [g, g.transpose()]
    for m in matrices:
        rows = [integer_multiple(m.row(i)) for i in range(m.rows)]
        assert _echelon([list(row) for row in rows], m.cols) == dense_echelon(rows, m.cols)


def test_eliminate_leaves_rows_zero_in_the_pivot_column_alone():
    # Gauss-Jordan pivots, as the simplex makes them, on the whole list.  A
    # row zero in the pivot column stays the same list at the same level; a
    # rewritten row and the pivot row take the pivot as level; and every row
    # is its dense Bareiss row times levels[i] / prev throughout.
    rng = random.Random(404)
    untouched = raised = 0
    for _ in range(400):
        m = sparse_rational_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        lazy = [integer_multiple(m.row(i)) for i in range(m.rows)]
        dense = [list(row) for row in lazy]
        levels, prev, used = [1] * m.rows, 1, set()
        for col in range(m.cols):
            p = next((i for i in range(m.rows) if i not in used and lazy[i][col]), None)
            if p is None:
                continue
            used.add(p)
            before, old_levels = list(lazy), list(levels)
            raised += levels[p] != prev
            piv = eliminate(lazy, levels, p, col, prev)
            assert piv == dense_bareiss_step(dense, p, col, prev)
            for i in range(m.rows):
                if i != p and not before[i][col]:
                    assert lazy[i] is before[i] and levels[i] == old_levels[i]
                    untouched += 1
                else:
                    assert levels[i] == piv
                assert [x * piv for x in lazy[i]] == [y * levels[i] for y in dense[i]]
            prev = piv
    assert untouched > 1000 and raised > 100


def test_kernel_vectors_are_integer_and_scaled_by_the_last_pivot():
    # With the last pivot at the free column, back-substitution lands on
    # integers: the basis vector times that pivot, entry for entry.
    rng = random.Random(402)
    for _ in range(500):
        m = sparse_rational_matrix(rng, rng.randint(0, 7), rng.randint(1, 8))
        work = [integer_multiple(m.row(i)) for i in range(m.rows)]
        echelon, pivots, scale = _echelon(work, m.cols)
        # The rows left over are the zero rows the pivots cleared.
        assert len(echelon) + len(work) == m.rows and not any(any(row) for row in work)
        assert [row.index(next(x for x in row if x)) for row in echelon] == pivots
        free = [j for j in range(m.cols) if j not in pivots]
        for j, vec in zip(free, nullspace_basis(m)):
            ints = kernel_vector(echelon, pivots, scale, j, m.cols)
            assert all(type(x) is int for x in ints)
            assert ints == [x * scale for x in vec]


def test_shown_quotes_at_most_40_characters():
    from nmfrigid.exactlin import _shown

    assert _shown("x" * 40) == repr("x" * 40)
    assert _shown("x" * 41) == repr("x" * 40) + "..."
    assert _shown("it's") == repr("it's")
    assert _shown(-1) == "-1" and _shown(Fraction(-1, 2)) == "-1/2"
    assert _shown(10**39) == "1" + "0" * 39
    assert _shown(10**40) == "1" + "0" * 39 + "..."
    assert _shown(-Fraction(10**30, 10**30 + 1)) == str(-Fraction(10**30, 10**30 + 1))[:40] + "..."


def test_shown_quotes_an_int_past_the_str_limit_by_its_digit_count():
    from nmfrigid.exactlin import _shown

    limit = sys.get_int_max_str_digits()
    for digits in (limit + 1, limit + 2, 3 * limit + 7):
        assert _shown(10 ** (digits - 1)) == f"<{digits}-digit int>"
        assert _shown(1 - 10**digits) == f"-<{digits}-digit int>"
    assert _shown(-(10**5000)) == "-<5001-digit int>"


def test_shown_quotes_a_fraction_past_the_str_limit_by_its_parts():
    from nmfrigid.exactlin import _shown

    assert _shown(Fraction(1, 10**5000)) == "1/<5001-digit int>"
    assert _shown(Fraction(-(10**5000), 3)) == "-<5001-digit int>/3"
    assert _shown(Fraction(10**5000 + 1, 10**6000)) == "<5001-digit int>/<6001-digit int>"
    assert _shown(Fraction(10**6000)) == "<6001-digit int>"
    # A container that str refuses is named by its type.
    assert _shown([10**5000]) == "<list>"
    with pytest.raises(TypeError, match=r"^cannot build an exact rational from <list> of type list$"):
        RationalMatrix.from_rows([[[10**5000]]])


def test_non_rational_entries_are_named_briefly():
    with pytest.raises(TypeError, match=r"^cannot build an exact rational from 0\.5 of type float$"):
        RationalMatrix.from_rows([[0.5]])
    with pytest.raises(TypeError) as exc:
        RationalMatrix.from_rows([[[0] * 5000]])
    assert str(exc.value).endswith("... of type list") and len(str(exc.value)) < 100
