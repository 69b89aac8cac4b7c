"""Rigidity certification for nonnegative factorizations M = AB.

Each zero of A or B contributes one generator to a cone of r x r matrices:
a zero at entry (i, j) of A gives the outer product of row i of A with the
j-th coordinate row, a zero at (i, j) of B gives minus the outer product of
the i-th coordinate column with column j of B.  The factorization is
infinitesimally rigid exactly when that cone is the full (r^2-r)-dimensional
space of zero-diagonal matrices, which reduces to a rank computation, a
lineality computation and one relative-interior feasibility test, all in
exact arithmetic.  All three start from the kernel of the generator matrix:
when it has dimension at most one (the tight zero count r^2-r+1 of every
rigid pattern), it answers the relative-interior and lineality questions
by itself, and no LP runs.  The same kernel locates the dependent column
subsets of the Kruskal search; at dimension at most two they are read off
its circuits and no subset is tested.

The first-order deformation cone W is dual to the generator cone, so its
dimension is r^2 minus the lineality dimension of the generators.  When W
is a linear space strictly between the diagonal and everything, the
zero-diagonal slice V of W is extracted and tested for V^2 = 0; success
certifies that the identity plus V stays inside the factorization fiber,
the partially-rigid situation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb

from . import patterns
from .cone import lineality_dimension, zero_in_relative_interior
from .exactlin import (
    RationalMatrix,
    Vector,
    _echelon,
    _shown,
    integer_multiple,
    kernel_vector,
    matmul,
    nullspace_basis,
    rank,
    vec_neg,
)

DEFAULT_KRUSKAL_BUDGET = 10**6


class Classification(Enum):
    INFINITESIMALLY_RIGID = "infinitesimally-rigid"
    PARTIALLY_INFINITESIMALLY_RIGID = "partially-infinitesimally-rigid"
    INTERIOR_CERTIFIED = "interior-certified"
    UNDETERMINED = "undetermined"
    NOT_RIGID = "not-rigid"  # symmetric (completely positive) case only


def _require_nonnegative(name: str, mat: RationalMatrix) -> None:
    for i in range(mat.rows):
        for j in range(mat.cols):
            if mat[i, j] < 0:
                raise ValueError(f"{name}[{i},{j}] = {_shown(mat[i, j])} is negative")


@dataclass(frozen=True)
class FactorizationPair:
    """A nonnegative pair (A: m x r, B: r x n), both of full rank r.

    Rank-deficient or negative input is a hard error: the rigidity theory
    assumes rank equals nonnegative rank throughout, and silently reducing
    the rank would certify the wrong object.
    """

    a: RationalMatrix
    b: RationalMatrix

    def __post_init__(self):
        if self.a.cols != self.b.rows:
            raise ValueError(
                f"inner dimensions differ: A is {self.a.rows}x{self.a.cols}, "
                f"B is {self.b.rows}x{self.b.cols}"
            )
        _require_nonnegative("A", self.a)
        _require_nonnegative("B", self.b)
        r = self.a.cols
        if rank(self.a) != r:
            raise ValueError(f"A has rank below {r}")
        if rank(self.b) != r:
            raise ValueError(f"B has rank below {r}")

    @property
    def r(self) -> int:
        return self.a.cols

    @property
    def m(self) -> int:
        return self.a.rows

    @property
    def n(self) -> int:
        return self.b.cols

    def product(self) -> RationalMatrix:
        return matmul(self.a, self.b)

    def zero_pattern(self) -> patterns.ZeroPattern:
        return patterns.pattern_of_factorization(self.a.row_list(), self.b.row_list())


@dataclass(frozen=True)
class GeneratorSource:
    """Which zero produced a generator: factor 'A' or 'B' plus the entry."""

    factor: str
    row: int
    col: int


@dataclass(frozen=True)
class DualConeGenerators:
    """Vectorized generators, one per zero, with their origins.

    The ambient dimension is r^2 for factorization pairs and r(r-1)/2 for
    symmetric factors in skew coordinates; `symmetric` tells the two apart.
    """

    r: int
    ambient_dim: int
    vectors: tuple[Vector, ...]
    sources: tuple[GeneratorSource, ...]
    symmetric: bool = False

    @property
    def count(self) -> int:
        return len(self.vectors)

    @cached_property
    def _matrix(self) -> RationalMatrix:
        return RationalMatrix.from_columns(self.vectors, self.ambient_dim)

    def matrix(self) -> RationalMatrix:
        """ambient_dim x count matrix of the generators, built once."""
        return self._matrix


def _generator_columns(a_rows, b_cols, r: int, coords) -> tuple[list[list], list[tuple]]:
    """The generator of each zero over the (k, l) motion coordinates
    `coords`, with its source ("A" or "B", i, j): A-zeros row-major, then
    B-zeros by row of B.  A zero at (i, j) of A has entry A[i, k] at (k, j),
    one of B has -B[l, j] at (i, l); the other entries are the zero itself,
    so the vectors hold the type of the input entries."""
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


def build_dual_generators(pair: FactorizationPair) -> DualConeGenerators:
    """One generator per zero: A-zeros in row-major order, then B-zeros.

    All generators vanish on the diagonal of their r x r matrix, because the
    zero at (i, j) of A means exactly that row i of A has a zero in slot j.
    """
    r = pair.r
    coords = [(k, l) for k in range(r) for l in range(r)]
    columns, sources = _generator_columns(pair.a.row_list(), pair.b.transpose().row_list(), r, coords)
    sources = tuple(GeneratorSource(*s) for s in sources)
    return DualConeGenerators(r, r * r, tuple(map(tuple, columns)), sources)


@dataclass(frozen=True)
class RigidityCertificate:
    """Full verdict for one factorization (or symmetric factor).

    `ambient_dim` is r^2 for pairs and r(r-1)/2 for symmetric factors;
    `dim_w` is always ambient_dim - lineality_dim, the dimension of the
    deformation cone.  `relint_witness` holds one coefficient per generator,
    each >= 1, combining them to zero, or None; a cone without generators
    has the empty witness ().  `v_basis` is only present for the partially
    rigid classification and spans the zero-diagonal slice of W.
    """

    r: int
    ambient_dim: int
    generator_count: int
    span_rank: int
    lineality_dim: int
    relint_witness: Vector | None
    dim_w: int
    classification: Classification
    v_basis: tuple[RationalMatrix, ...] | None = None
    kruskal_rank: int | None = None
    symmetric: bool = False

    @property
    def kruskal_criterion(self) -> bool | None:
        """Whether the generator matrix reaches its largest possible Kruskal
        rank: min(count, r^2 - r) for pairs, min(count, r(r-1)/2) for
        symmetric factors.

        For a locally rigid factorization, reaching it implies infinitesimal
        rigidity.  None when the Kruskal rank was not computed (budget); a
        factorization without zeros passes vacuously.
        """
        if self.kruskal_rank is None:
            return None
        return self.kruskal_rank == min(self.generator_count, _motion_dim(self))

    def v_support(self) -> tuple[tuple[int, int], ...]:
        """Entries (row, col), 0-based, touched by any V-basis element."""
        support = {divmod(k, v.cols) for v in self.v_basis or () for k, x in enumerate(v.data) if x}
        return tuple(sorted(support))


def _motion_dim(subject: DualConeGenerators | RigidityCertificate) -> int:
    """Dimension of the nontrivial motions: the zero-diagonal matrices for
    a pair, whose diagonal motions are trivial, and every skew matrix for a
    symmetric factor."""
    return subject.ambient_dim if subject.symmetric else subject.ambient_dim - subject.r


def _zero_diagonal_slice_basis(gens: DualConeGenerators) -> tuple[RationalMatrix, ...]:
    # Basis of V = {D : <g, D> = 0 for all generators, diag D = 0}: the
    # reduced-row-echelon kernel basis of the generator rows, which clearing
    # each row of denominators keeps.  No generator touches the diagonal, so
    # its columns are free and their kernel vectors, the diagonal units, are
    # not V; the vector of each other free column vanishes on the diagonal.
    r = gens.r
    cols = r * r
    echelon, pivots, scale = _echelon([integer_multiple(vec) for vec in gens.vectors], cols)
    skipped = set(pivots).union(range(0, cols, r + 1))  # pivot columns and the diagonal
    basis = []
    for free in range(cols):
        if free not in skipped:
            vec = kernel_vector(echelon, pivots, scale, free, cols)
            basis.append(RationalMatrix(r, r, tuple([Fraction(x, scale) for x in vec])))
    return tuple(basis)


def _squares_to_zero(basis: tuple[RationalMatrix, ...]) -> bool:
    # D^2 = 0 for every element of span(basis) iff XY + YX = 0 for every
    # pair of basis elements X, Y, with X = Y included.  Positive scalings
    # of X and Y keep that, so it is tested on their integer multiples.
    mats = []
    for m in basis:
        flat = integer_multiple(m.data)
        mats.append([flat[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)])
    for x, y in combinations_with_replacement(mats, 2):
        for x_row, y_row in zip(x, y):
            # Row i of XY + YX: the rows of Y weighted by row i of X, plus
            # the rows of X weighted by row i of Y; the zeros add nothing.
            total = [0] * len(x_row)
            for weights, rows in ((x_row, y), (y_row, x)):
                for w, row in zip(weights, rows):
                    if w:
                        total = [t + w * v for t, v in zip(total, row)]
            if any(total):
                return False
    return True


def certify(
    pair: FactorizationPair, kruskal_budget: int = DEFAULT_KRUSKAL_BUDGET
) -> RigidityCertificate:
    """Classify a factorization from its dual-cone generators.

    Classification:
      * infinitesimally rigid: the generators positively span the whole
        zero-diagonal space (lineality = span rank = r^2 - r with a
        relative-interior witness);
      * interior certified: no lineality at all, so the deformation cone W
        is full dimensional and the product lies in the interior of the
        fixed-nonnegative-rank set;
      * partially infinitesimally rigid: W is a linear space with
        r < dim W < r^2 whose zero-diagonal slice V squares to zero, so the
        affine space I + V survives inside the factorization fiber;
      * undetermined: anything else; the raw dimensions are still reported.

    The Kruskal rank of the generator matrix is attached when the subset
    budget allows (pass 0 to skip it).
    """
    return _certify_generators(build_dual_generators(pair), kruskal_budget)


def _certify_generators(gens: DualConeGenerators, kruskal_budget: int) -> RigidityCertificate:
    r, ambient_dim = gens.r, gens.ambient_dim
    matrix = gens.matrix()
    kernel = nullspace_basis(matrix)
    span_rank = gens.count - len(kernel)
    witness, lin_dim = _relint_stage(matrix, kernel)
    dim_w = ambient_dim - lin_dim

    v_basis = None
    if lin_dim == span_rank == _motion_dim(gens) and witness is not None:
        classification = Classification.INFINITESIMALLY_RIGID
    elif gens.symmetric:
        # Without trivial deformations, any nonzero W element is a genuine
        # infinitesimal motion.
        classification = Classification.NOT_RIGID
    elif dim_w == ambient_dim:
        classification = Classification.INTERIOR_CERTIFIED
    elif witness is not None and r < dim_w < ambient_dim:
        candidate = _zero_diagonal_slice_basis(gens)
        if _squares_to_zero(candidate):
            classification = Classification.PARTIALLY_INFINITESIMALLY_RIGID
            v_basis = candidate
        else:
            classification = Classification.UNDETERMINED
    else:
        classification = Classification.UNDETERMINED

    kruskal = kruskal_rank_of_columns(gens.vectors, kruskal_budget, kernel=kernel)
    return RigidityCertificate(
        r=r,
        ambient_dim=ambient_dim,
        generator_count=gens.count,
        span_rank=span_rank,
        lineality_dim=lin_dim,
        relint_witness=witness,
        dim_w=dim_w,
        classification=classification,
        v_basis=v_basis,
        kruskal_rank=kruskal,
        symmetric=gens.symmetric,
    )


def is_infinitesimally_rigid(a_rows, b_rows) -> bool:
    """Cheap accept test: span rank r^2-r plus a relative-interior witness.

    Takes the rows of A (m x r) and of B (r x n), ints or Fractions, and
    checks neither signs nor the ranks of the factors, so a search loop
    decides a draw before it builds a `FactorizationPair`; on a full-rank
    nonnegative pair the answer is `certify`'s infinitesimally-rigid
    verdict.  The generators are those of `build_dual_generators`, each
    scaled to integers by a positive factor (a row of A or a column of B
    cleared of denominators), which changes neither the cone nor the sign
    pattern of a kernel vector, and taken over the r^2-r off-diagonal
    coordinates only, since all of them vanish on the diagonal.  One
    forward elimination on these integers gives the span rank; a kernel of
    dimension at most one is read off by integer back-substitution, and
    only a kernel of dimension two or more pays for the feasibility LP.
    The lineality and Kruskal stages are skipped.
    """
    r = len(b_rows)
    coords = [(k, l) for k in range(r) for l in range(r) if k != l]
    a_rows = [integer_multiple(row) if 0 in row else row for row in a_rows]
    b_cols = [integer_multiple(col) for col in zip(*b_rows)]
    columns, _ = _generator_columns(a_rows, b_cols, r, coords)
    count = len(columns)
    echelon, pivots, scale = _echelon([list(row) for row in zip(*columns)], count)
    if len(pivots) != len(coords):
        return False
    if count - len(pivots) >= 2:
        return zero_in_relative_interior(RationalMatrix.from_columns(columns, len(coords))) is not None
    kernel = [kernel_vector(echelon, pivots, scale, j, count) for j in range(count) if j not in pivots]
    return _cone_from_kernel(kernel, count)[0] is not None


def _relint_stage(matrix: RationalMatrix, kernel: list[Vector]) -> tuple[Vector | None, int]:
    """Relative-interior witness of the generator cone and its lineality
    dimension.

    A kernel of dimension at most one decides both.  Otherwise the witness
    is the feasibility LP's vertex; with one the cone is its span, and
    without one the lineality LPs measure it.
    """
    if len(kernel) <= 1:
        return _cone_from_kernel(kernel, matrix.cols)
    witness = zero_in_relative_interior(matrix)
    if witness is None:
        return None, lineality_dimension(matrix)
    return witness, matrix.cols - len(kernel)


def _cone_from_kernel(kernel: list[Vector], count: int) -> tuple[Vector | None, int]:
    """Relative-interior witness and lineality dimension of the generator
    cone, read off a kernel of dimension at most one.

    Zero is a positive combination of the generators exactly when some
    kernel vector is positive, and -g_i lies in the cone exactly when some
    nonnegative kernel vector is positive at i.  With kernel span(v), v
    oriented to a positive first nonzero entry: v > 0 gives the witness
    v / min(v), the only vertex of {x >= 1, Gx = 0} and so the point the
    simplex would return; v >= 0 makes the generators on its support
    two-sided, spanning rank |supp v| - 1; mixed signs leave no two-sided
    generator.  A trivial kernel gives lineality 0 and a witness only for
    the empty generator list, whose cone {0} is a linear space.
    """
    if not kernel:
        return (() if count == 0 else None), 0
    (v,) = kernel
    if next(x for x in v if x) < 0:
        v = vec_neg(v)
    if any(x < 0 for x in v):
        return None, 0
    lin_dim = sum(1 for x in v if x) - 1
    low = min(v)
    if low == 0:
        return None, lin_dim
    return tuple(Fraction(x, low) for x in v), lin_dim


# ---------------------------------------------------------------------------
# Kruskal rank
# ---------------------------------------------------------------------------

def kruskal_rank_of_columns(
    columns: tuple[Vector, ...], budget: int, *, kernel: list[Vector] | None = None
) -> int | None:
    """Largest k such that every k columns are linearly independent.

    Defined by a descending search from min(count, rank) = count - d, d the
    kernel dimension.  At each level k the subsets are taken in
    `combinations` order: the first dependent one, at position p, charges
    p + 1 units against `budget` and sends the search a level down, and a
    level without one charges C(count, k) and answers k.  A search whose
    charge would pass the budget reports unknown (None) rather than an
    approximation.  No columns, or no passing level, give 0.  `kernel`, a
    basis of the right kernel of the columns, saves recomputing it when the
    caller holds one.

    The kernel locates the dependent subsets: S is dependent exactly when
    some nonzero kernel vector is supported inside S.  For d <= 2 the first
    dependent k-subset is the lex-first superset of a circuit read off the
    kernel (`_small_kernel_circuits`), so no subset is tested.  For d >= 3
    the subsets are tested in turn, at most as many as the budget has left:
    S is independent iff the d x (count - |S|) kernel block outside S has
    rank d, a small rank in place of a tall one.
    """
    c = len(columns)
    if c == 0:
        return 0
    if kernel is None:
        kernel = nullspace_basis(RationalMatrix.from_columns(columns, len(columns[0])))
    kernel = [integer_multiple(v) for v in kernel]
    d = len(kernel)
    if d <= 2:
        circuits = _small_kernel_circuits(kernel)

        def first_dependent(k: int, _limit: int) -> int | None:
            firsts = [_first_superset(circuit, k, c) for circuit in circuits if len(circuit) <= k]
            return min(_lex_index(first, c) for first in firsts) if firsts else None

    else:

        def first_dependent(k: int, limit: int) -> int | None:
            # Past `limit` tested subsets, the position reached stands in:
            # its charge is already over the budget.
            for position, subset in enumerate(combinations(range(c), k)):
                if position == limit:
                    return position
                outside = [j for j in range(c) if j not in subset]
                # Lists, not generators, feed tuple() and lcm(*...) here and
                # in rank: a tuple grown from a generator is resized on the
                # way, and 30,000 of them fill the tuple free lists (~3 MB).
                block = RationalMatrix(d, len(outside), tuple([row[j] for row in kernel for j in outside]))
                if rank(block) != d:
                    return position
            return None

    used = 0
    for k in range(c - d, 0, -1):
        position = first_dependent(k, budget - used)
        tested = comb(c, k) if position is None else position + 1
        if used + tested > budget:
            return None
        if position is None:
            return k
        used += tested
    return 0


def _small_kernel_circuits(kernel: list[list[int]]) -> list[list[int]]:
    """Circuits of the columns, as sorted index lists, from an integer
    kernel basis of dimension at most two: none for d = 0, the support of
    the kernel vector for d = 1, and for d = 2 one circuit per parallel
    class P of nonzero kernel columns, the nonzero kernel columns outside P."""
    if len(kernel) < 2:
        return [[j for j, x in enumerate(v) if x] for v in kernel]
    top, bottom = kernel
    c = len(top)
    classes: list[list[int]] = []  # parallel classes of nonzero kernel columns
    for j in range(c):
        x, y = top[j], bottom[j]
        if not (x or y):
            continue
        for cls in classes:
            i = cls[0]
            if top[i] * y == bottom[i] * x:
                cls.append(j)
                break
        else:
            classes.append([j])
    return [
        [j for j in range(c) if (top[j] or bottom[j]) and j not in cls]
        for cls in classes
    ]


def _first_superset(circuit: list[int], k: int, c: int) -> list[int]:
    # The lex-first k-subset of range(c) containing `circuit`: the circuit
    # plus the smallest indices outside it.
    inside = set(circuit)
    extra = [j for j in range(c) if j not in inside][: k - len(circuit)]
    return sorted(circuit + extra)


def _lex_index(subset: list[int], c: int) -> int:
    # Position of the sorted `subset` in combinations(range(c), len(subset)):
    # for each slot, the subsets that agree before it and hold a smaller
    # index there.
    k = len(subset)
    index = 0
    prev = -1
    for slot, s in enumerate(subset):
        for x in range(prev + 1, s):
            index += comb(c - 1 - x, k - 1 - slot)
        prev = s
    return index


# ---------------------------------------------------------------------------
# Necessary conditions
# ---------------------------------------------------------------------------

# (name, predicates under which it applies, predicate, detail[, failure
# detail]), evaluated by `patterns.condition_report`.
_CONDITIONS = (
    ("zero-count", (), "enough-zeros", "{count} zeros, need at least {tight}"),
    ("boundary-closed-a", (), "closed-a", "each ordered inner pair separated by some row of A"),
    ("boundary-closed-b", (), "closed-b", "each ordered inner pair separated by some column of B"),
    ("inner-coverage", (), "covered", "every column of A and every row of B contains a zero"),
    ("row-zero-bound", ("positive",), "row-bound",
     "at most r-2 zeros per row of A and column of B (product strictly positive)"),
    ("column-zero-bound", ("tight",), "column-bound",
     "at most r-1 zeros per column of A and row of B (tight zero count)"),
    ("zero-rectangles", ("tight",), "no-rectangle",
     "no oversized zero rectangle pair (tight zero count)",
     "violated by alpha={alpha} beta={beta} k={k} l={l}"),
    ("product-positive", ("tight",), "positive",
     "a rigid factorization with the tight zero count has strictly positive product"),
)


def necessary_conditions_report(pair: FactorizationPair) -> patterns.NecessaryConditionsReport:
    """Evaluate the combinatorial necessary conditions on the zero pattern.

    Conditions whose hypotheses do not apply (for example the tight-count
    lemmas when the zero count is not exactly r^2-r+1, or the per-row bound
    when the product has a zero entry) are reported as not applicable, and
    so is every condition at r = 1, where the motion space is zero and
    every pair is rigid.  Works directly on the zero supports so that pairs
    with an all-zero row of A or column of B (valid inputs that no
    realizable pattern object represents) still get a report instead of an
    error.
    """
    zeros_a, zeros_b = ([[x == 0 for x in row] for row in f.row_list()] for f in (pair.a, pair.b))
    support = patterns.ZeroSupport.of(pair.r, zeros_a, zeros_b)
    return patterns.condition_report(support, _CONDITIONS)
