"""Rigidity certification for nonnegative factorizations M = AB.

Each zero of A or B contributes one generator to a cone of r x r matrices:
a zero at entry (i, j) of A gives the outer product of row i of A with the
j-th coordinate row, a zero at (i, j) of B gives minus the outer product of
the i-th coordinate column with column j of B.  The factorization is
infinitesimally rigid exactly when that cone is the full (r^2-r)-dimensional
space of zero-diagonal matrices, which reduces to a rank computation, a
lineality computation and one relative-interior feasibility test, all in
exact arithmetic.  A pair is cleared and scanned for zeros once, when it
is built.  The nonzero cells of the generator matrix, each with the entry
of A or of -B that fills it, are listed once per zero pattern; each
generator is built from them as an integer column over the r^2-r
off-diagonal coordinates, scaled by the lcm of the denominators of its row
of A or column of B.  The realize accept test fills the same cells, and
plans from them the steps of its elimination and the cells each can make
nonzero: the plan of the last pattern is memoised, so a realization
search and the public test of its accepted draw share one.  The kernel of
those columns starts all three tests: at dimension at most one (the tight
zero count r^2-r+1 of every rigid pattern) it decides relative interior
and lineality by itself, and only the LPs of a larger kernel, and the
verifier, read Fractions.  The same
kernel locates the dependent column subsets of the Kruskal search: they
are read off its circuits, found from the hyperplanes its columns span,
with no subset tested, unless finding them would take more than a capped
number of candidate sets.

The first-order deformation cone W is dual to the generator cone, so its
dimension is r^2 minus the lineality dimension of the generators.  When W
is a linear space strictly between the diagonal and everything, its
zero-diagonal slice V, the kernel of the columns taken as rows, is tested
for V^2 = 0; success certifies that the identity plus V stays inside the
factorization fiber, the partially-rigid situation.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, combinations, combinations_with_replacement
from math import comb, gcd
from typing import Callable

from . import patterns
from .cone import lineality_dimension, zero_in_relative_interior
from .exactlin import (
    RationalMatrix, Vector, _shown, integer_kernel, integer_multiple, integer_rank, matmul,
    nullspace_basis, one_signed_kernel, planned_one_signed_kernel, rank, vec_neg,
)

DEFAULT_KRUSKAL_BUDGET = 10**6


class Classification(Enum):
    INFINITESIMALLY_RIGID = "infinitesimally-rigid"
    PARTIALLY_INFINITESIMALLY_RIGID = "partially-infinitesimally-rigid"
    INTERIOR_CERTIFIED = "interior-certified"
    UNDETERMINED = "undetermined"
    NOT_RIGID = "not-rigid"  # symmetric (completely positive) case only


_IntegerForm = namedtuple("_IntegerForm", "a_rows b_rows scales zeros_a zeros_b")


def _cleared(r: int, a_rows, b_cols) -> _IntegerForm:
    """The integer form: each row of A and column of B times its scale, the
    lcm of its denominators, a positive scaling of the generators it feeds;
    so the rows of A and of B, the scales (A's rows first), and zero masks,
    all as `integer_multiple` hands them back."""
    cleared = [integer_multiple(v) for v in [*a_rows, *b_cols]]
    scales = [s for s, _ in cleared]
    a_ints = [ints for _, ints in cleared[: len(a_rows)]]
    b_rows = [[col[i] for _, col in cleared[len(a_rows) :]] for i in range(r)]
    zeros_a, zeros_b = (tuple([tuple([x == 0 for x in row]) for row in rows]) for rows in (a_ints, b_rows))
    return _IntegerForm(a_ints, b_rows, scales, zeros_a, zeros_b)


def _require_nonnegative(name: str, mat: RationalMatrix, rows: list[list[int]]) -> None:
    for i, row in enumerate(rows):
        if min(row, default=0) < 0:
            j = next(j for j, x in enumerate(row) if x < 0)
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
        _require_nonnegative("A", self.a, self._form.a_rows)
        _require_nonnegative("B", self.b, self._form.b_rows)
        # Ranks of the integer form: clearing scales the rows of A and the
        # columns of B by positive numbers, which keeps both ranks.
        r = self.a.cols
        for name, rows, cols in (("A", self._form.a_rows, r), ("B", self._form.b_rows, self.n)):
            if integer_rank([list(row) for row in rows], cols) != r:
                raise ValueError(f"{name} has rank below {r}")

    @cached_property
    def _form(self) -> _IntegerForm:  # cleared once, when the checks above read it
        return _cleared(self.r, self.a.row_list(), self.b.transpose().row_list())

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
        return patterns.ZeroPattern(self.m, self.n, self.r, self._form.zeros_a, self._form.zeros_b)


@dataclass(frozen=True)
class GeneratorSource:
    """Which zero produced a generator: factor 'A' or 'B' plus the entry."""

    factor: str
    row: int
    col: int


@dataclass(frozen=True)
class DualConeGenerators:
    """Generators, one per zero, with their origins, built once in integers.

    `columns[j]` is generator j over the motion coordinates times the scale
    `scales[j]`, the lcm of the denominators of its row of A or column of B:
    the r^2 - r off-diagonal (k, l), row-major, for pairs (no generator
    touches the diagonal), the r(r-1)/2 skew pairs for symmetric factors.
    `vectors` and `matrix()` are Fraction views, built on first use (for
    the LPs and the verifier), over all r^2 entries for pairs.
    """

    r: int
    ambient_dim: int
    columns: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]
    sources: tuple[GeneratorSource, ...]
    symmetric: bool = False

    @property
    def count(self) -> int:
        return len(self.columns)

    @cached_property
    def vectors(self) -> tuple[Vector, ...]:
        zero = Fraction(0)  # most entries: one shared object, as in the input
        views = [[Fraction(x, s) if x else zero for x in column] for column, s in zip(self.columns, self.scales)]
        for view in [] if self.symmetric else views:
            for d in range(self.r):
                view.insert(d * (self.r + 1), zero)
        return tuple(map(tuple, views))

    @cached_property
    def _matrix(self) -> RationalMatrix:
        return RationalMatrix.from_columns(self.vectors, self.ambient_dim)

    def matrix(self) -> RationalMatrix:
        """ambient_dim x count matrix of the generators, built once."""
        return self._matrix


def _generator_plan(r: int, coords, zeros_a, zeros_b, symmetric: bool = False) -> tuple[list[tuple], list[tuple]]:
    """(sources, cells): the source ("A" or "B", i, j) of each generator,
    A-zeros row-major, then B-zeros by row of B; each nonzero cell of the
    generator matrix as (t, generator, slot), the row t for coords[t] and
    the slot into `_plan_values`, generator by generator, rows ascending.

    A zero at (i, j) of A puts A[i, k] at (k, j), one of B puts -B[l, j] at
    (i, l), for each k or l whose entry is not a zero.  A symmetric factor
    has no B and the values A, then -A: read on skew matrices as
    g[k, l] - g[l, k] at pairs k < l, an entry at (k, j) with k > j moves
    to (j, k) with its sign flipped.
    """
    m, n = len(zeros_a), len(zeros_b[0]) if zeros_b else 0
    row = {coord: t for t, coord in enumerate(coords)}
    sources, cells = [], []
    for i, zeros in enumerate(zeros_a):
        for j in range(r):
            if zeros[j]:
                flip = [symmetric and k > j for k in range(r)]
                cells += [(row[(j, k) if flip[k] else (k, j)], len(sources), (m * flip[k] + i) * r + k) for k in range(r) if k != j and not zeros[k]]
                sources.append(("A", i, j))
    for i in range(r):
        for j in range(n):
            if zeros_b[i][j]:
                cells += [(row[i, l], len(sources), m * r + l * n + j) for l in range(r) if l != i and not zeros_b[l][j]]
                sources.append(("B", i, j))
    return sources, cells


def _plan_values(a_rows, b_rows) -> list:
    """What the slots of a `_generator_plan` index: the entries of A
    row-major, then those of -B row-major."""
    return [x for row in a_rows for x in row] + [-x for row in b_rows for x in row]


def _value_slots(zeros_a, zeros_b) -> tuple[list[tuple[int, int]], int]:
    """The `_plan_values` layout for factors with these zero masks: the
    (slot, sign) of each entry off the zeros, A's row-major then B's, and
    the length of the list."""
    m, r = len(zeros_a), len(zeros_b)
    free = [(k, 1) for k, zero in enumerate(chain(*zeros_a)) if not zero]
    free += [(m * r + k, -1) for k, zero in enumerate(chain(*zeros_b)) if not zero]
    return free, m * r + sum(map(len, zeros_b))


def _value_rows(values: list, m: int, r: int, n: int) -> tuple[list[list], list[list]]:
    """The rows of A (m x r) and of B (r x n) that `_plan_values` gave."""
    a_rows = [values[i * r : (i + 1) * r] for i in range(m)]
    b_rows = [[-x for x in values[m * r + i * n : m * r + (i + 1) * n]] for i in range(r)]
    return a_rows, b_rows


def _off_diagonal(r: int) -> list[tuple[int, int]]:
    """The r^2 - r off-diagonal motion coordinates (k, l) of a pair, row-major."""
    return [(k, l) for k in range(r) for l in range(r) if k != l]


def _build_generators(r: int, coords, form: _IntegerForm, symmetric: bool = False) -> DualConeGenerators:
    """The generators of A's zeros, by its rows, and B's, by its columns:
    each column zero but for its cells, at most r - 1 of them."""
    sources, cells = _generator_plan(r, coords, form.zeros_a, form.zeros_b, symmetric)
    values = _plan_values(form.a_rows, form.a_rows if symmetric else form.b_rows)
    columns = [[0] * len(coords) for _ in sources]
    for t, g, slot in cells:
        columns[g][t] = values[slot]
    scales = tuple(form.scales[i if factor == "A" else len(form.a_rows) + j] for factor, i, j in sources)
    sources = tuple(GeneratorSource(*source) for source in sources)
    return DualConeGenerators(r, len(coords) if symmetric else r * r, tuple(map(tuple, columns)), scales, sources, symmetric)


def build_dual_generators(pair: FactorizationPair) -> DualConeGenerators:
    """One generator per zero: A-zeros in row-major order, then B-zeros.

    All generators vanish on the diagonal of their r x r matrix, because the
    zero at (i, j) of A means exactly that row i of A has a zero in slot j.
    """
    return _build_generators(pair.r, _off_diagonal(pair.r), pair._form)


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


def _zero_diagonal_slice_basis(gens: DualConeGenerators) -> tuple[int, list[list[int]]]:
    # (scale, vectors): a basis of V = {D : <g, D> = 0 for all generators,
    # diag D = 0}, flattened r x r: `scale` times the reduced-row-echelon
    # kernel of the integer columns as rows, which their scales keep, with
    # a zero diagonal put back.
    r = gens.r
    _, scale, vectors = integer_kernel([list(column) for column in gens.columns], r * r - r)
    for vec in vectors:
        for d in range(r):
            vec.insert(d * (r + 1), 0)
    return scale, vectors


def _squares_to_zero(vectors: list[list[int]], r: int) -> bool:
    # D^2 = 0 for every element of the span of the flattened r x r integer
    # matrices `vectors` iff XY + YX = 0 for every pair of them, X = Y
    # included.
    mats = [[vec[i * r : (i + 1) * r] for i in range(r)] for vec in vectors]
    for x, y in combinations_with_replacement(mats, 2):
        for x_row, y_row in zip(x, y):
            # Row i of XY + YX: the rows of Y weighted by row i of X, plus
            # the rows of X weighted by row i of Y; the zeros add nothing.
            total = [0] * r
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
    span_rank, _, kernel = integer_kernel([list(row) for row in zip(*gens.columns)], gens.count)
    if len(kernel) <= 1:
        # mu in the columns' kernel is lambda_j = s_j mu_j in the generators'.
        witness, lin_dim = _cone_from_kernel([[s * x for s, x in zip(gens.scales, v)] for v in kernel], gens.count)
    else:
        # The feasibility LP's vertex; with one the cone is its span, and
        # without one the lineality LPs measure it.
        witness = zero_in_relative_interior(gens.matrix())
        lin_dim = gens.count - len(kernel) if witness is not None else lineality_dimension(gens.matrix())
    dim_w = ambient_dim - lin_dim

    v_basis = None
    # A witness makes the cone linear, of dimension span_rank, so the
    # partial branch below sees r < dim_w < ambient_dim.
    if span_rank == _motion_dim(gens) and witness is not None:
        classification = Classification.INFINITESIMALLY_RIGID
    elif gens.symmetric:
        # Without trivial deformations, any nonzero W element is a genuine
        # infinitesimal motion.
        classification = Classification.NOT_RIGID
    elif dim_w == ambient_dim:
        classification = Classification.INTERIOR_CERTIFIED
    elif witness is not None:
        scale, vectors = _zero_diagonal_slice_basis(gens)
        if _squares_to_zero(vectors, r):
            classification = Classification.PARTIALLY_INFINITESIMALLY_RIGID
            v_basis = tuple(RationalMatrix(r, r, tuple([Fraction(x, scale) for x in vec])) for vec in vectors)
        else:
            classification = Classification.UNDETERMINED
    else:
        classification = Classification.UNDETERMINED

    kruskal = kruskal_rank_of_columns(gens.columns, kruskal_budget, kernel=kernel)
    return RigidityCertificate(
        r=r, ambient_dim=ambient_dim, generator_count=gens.count, span_rank=span_rank, lineality_dim=lin_dim,
        relint_witness=witness, dim_w=dim_w, classification=classification, v_basis=v_basis,
        kruskal_rank=kruskal, symmetric=gens.symmetric,
    )


def is_infinitesimally_rigid(a_rows, b_rows) -> bool:
    """Cheap accept test: span rank r^2-r plus a relative-interior witness.

    Takes the rows of A (m x r) and of B (r x n), ints or Fractions, and
    checks neither signs nor the ranks of the factors, so a search loop
    decides a draw before it builds a `FactorizationPair`; on a full-rank
    nonnegative pair the answer is `certify`'s infinitesimally-rigid
    verdict.  The factors, cleared as a `FactorizationPair` clears them, go
    to `accept_test` of their own zeros, so they meet its precondition; a
    search that has just planned those zeros finds the plan in the memo of
    `_accept_plan`.
    """
    form = _cleared(len(b_rows), a_rows, list(zip(*b_rows)))
    return accept_test(form.zeros_a, form.zeros_b)(_plan_values(form.a_rows, form.b_rows))


def accept_test(zeros_a, zeros_b) -> Callable[[list[int]], bool]:
    """The accept test of `is_infinitesimally_rigid` for a zero pattern, as
    a callable on the `_plan_values` of a draw: the int entries of A
    row-major, then those of -B row-major.

    Precondition: the entries of a draw are nonzero exactly off the
    pattern's zeros, as a search with entry_low >= 1 draws them.  The
    `_generator_plan` cells of `build_dual_generators` then name the entry
    of A, or negated entry of B, in each nonzero of the generator matrix,
    so they serve every draw: a fill writes them into zero rows, laid out
    as the generators are built; `_accept_plan` lists them once a pattern.
    `planned_one_signed_kernel` gives the span rank and the sign
    pattern of a one-dimensional kernel from a fill of it, along the steps
    `_pivot_order` plans, rewriting only the cells the pattern can make
    nonzero, and stops at the first kernel entry that rules the draw out.
    A draw the plan does not hold for, one that cancels a planned pivot as
    entries from a narrow range can, is filled afresh for
    `one_signed_kernel`.  A kernel of dimension two or more pays for the
    feasibility LP on one more fill; one of dimension zero accepts only
    the empty generator list, as `_cone_from_kernel` does.
    """
    zeros_a, zeros_b = tuple(map(tuple, zeros_a)), tuple(map(tuple, zeros_b))
    height, cells, plan, count = _accept_plan(zeros_a, zeros_b)

    def filled(values: list[int]) -> list[list[int]]:
        rows = [[0] * count for _ in range(height)]
        for t, g, slot in cells:
            rows[t][g] = values[slot]
        return rows

    def accepts(values: list[int]) -> bool:
        planned = planned_one_signed_kernel(filled(values), plan, count)
        span_rank, one_signed = planned or one_signed_kernel(filled(values), count)
        if span_rank != height:
            return False
        if count - span_rank >= 2:
            columns = list(zip(*filled(values)))
            return zero_in_relative_interior(RationalMatrix.from_columns(columns, height)) is not None
        return one_signed or count == 0

    return accepts


@lru_cache(maxsize=1)
def _accept_plan(zeros_a: tuple, zeros_b: tuple) -> tuple[int, list[tuple], tuple, int]:
    """(height, cells, plan, count) of `accept_test` for zero masks given
    as tuples of tuples: the generator matrix's r^2 - r rows, its
    `_generator_plan` cells, their `_pivot_order` plan, and its columns.

    Memoised for the pattern used last, so a search and the public test of
    its accepted draw plan the pattern once.  Every caller gets the same
    lists and must only read them.
    """
    r = len(zeros_b)
    sources, cells = _generator_plan(r, _off_diagonal(r), zeros_a, zeros_b)
    return r * r - r, cells, _pivot_order(r * r - r, len(sources), cells), len(sources)


# The field of the probe draw that `_pivot_order` eliminates alongside.
_PROBE_PRIME = 2**61 - 1


def _pivot_order(height: int, count: int, cells) -> tuple[list, list[int], list[int], list[int]]:
    """(steps, pivot rows, pivot columns, rest) of a greedy elimination of
    the zero pattern of a `height` x `count` matrix with the `cells` of
    `_generator_plan`, as `planned_one_signed_kernel` runs them: the pivot
    row and column of each step in step order, and the rows no step pivots.

    The elimination follows the pattern and one probe draw, a seeded value
    for each slot, drawn in cell order, worked modulo `_PROBE_PRIME`.  Each
    step takes the column that the fewest rows still hold, lowest index
    first, and pivots it at the first of those rows nonzero on the probe;
    every other holder is rewritten on the union of the two row patterns
    and keeps it less the column, as `eliminate` rewrites it.  Entries of A
    and B recur across generators, so a pivot the pattern allows can cancel
    on every draw; the probe finds such a pivot with high probability, and
    a column whose holders are all zero on it stays zero, so it is passed
    over.  The elimination stops when no column is left with a holder
    nonzero on the probe.  A draw checks its own pivots and that the rows
    left over are zero, so the plan moves work, never a verdict.
    """
    draw, probe = random.Random(0), {}
    support = [{} for _ in range(height)]  # row: {column it may hold: probe value}
    holders = [set() for _ in range(count)]  # column: rows that may hold it
    for t, c, slot in cells:
        if slot not in probe:
            probe[slot] = draw.getrandbits(60) + 1
        support[t][c] = probe[slot]
        holders[c].add(t)
    level = [0] * height  # row: steps run when it was last rewritten
    steps, rest = [], set(range(height))
    left = set(range(count))
    while True:
        order = sorted((len(holders[c]), c) for c in left)
        col, pivot = next(((c, i) for _, c in order for i in sorted(holders[c]) if support[i][c]), (None, None))
        if col is None:
            break
        left.remove(col)
        rest.remove(pivot)
        row_p = support[pivot]
        for c in row_p:
            holders[c].discard(pivot)
        rewrites = []
        for i in sorted(holders[col]):
            row_i = support[i]
            f = row_i.pop(col)
            rewrites.append((i, sorted((row_i.keys() | row_p.keys()) - {col}), level[i]))
            level[i] = len(steps) + 1
            for c in row_i:
                row_i[c] = row_i[c] * row_p[col] % _PROBE_PRIME
            for c, y in row_p.items():
                if c != col:
                    if c not in row_i:
                        holders[c].add(i)
                    row_i[c] = (row_i.get(c, 0) - f * y) % _PROBE_PRIME
        steps.append((pivot, col, level[pivot], sorted(row_p), rewrites))
    return steps, [step[0] for step in steps], [step[1] for step in steps], sorted(rest)


def _cone_from_kernel(kernel: list[list[int]], count: int) -> tuple[Vector | None, int]:
    """Relative-interior witness and lineality dimension of the generator
    cone, read off an integer kernel basis of dimension at most one.

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
    columns: tuple[Vector, ...], budget: int, *, kernel: list[list[int]] | None = None
) -> int | None:
    """Largest k such that every k columns are linearly independent.

    Defined by a descending search from min(count, rank) = count - d, d the
    kernel dimension.  At each level k the subsets are taken in
    `combinations` order: the first dependent one, at position p, charges
    p + 1 units against `budget` and sends the search a level down, and a
    level without one charges C(count, k) and answers k.  A search whose
    charge would pass the budget reports unknown (None) rather than an
    approximation.  No columns, or no passing level, give 0.  The columns
    hold ints or Fractions.  `kernel`, an integer basis of their right
    kernel such as `integer_kernel` hands back, saves recomputing it when
    the caller holds one; without it, `nullspace_basis` is cleared of
    denominators.

    The kernel locates the dependent subsets: S is dependent exactly when
    some nonzero kernel vector is supported inside S.  When C(count, d - 1),
    the sets `_kernel_circuits` tries, is at most `_CIRCUIT_CAP`, and always
    for d <= 2, the first dependent k-subset is the lex-first superset of
    one of the circuits it finds, so no subset is tested.
    Past the cap the subsets are tested in turn, at most as many as the
    budget has left, each by one `rank`: S is dependent iff the k columns
    in S have rank below k, or equally iff the d x (count - k) kernel block
    outside S has rank below d, and each level takes the test with fewer
    cells.  Every route finds the same first dependent subset, so every
    position, charge and answer, None included, is the same.
    """
    c = len(columns)
    if c == 0:
        return 0
    if kernel is None:
        kernel = [integer_multiple(v)[1] for v in nullspace_basis(RationalMatrix.from_columns(columns, len(columns[0])))]
    d = len(kernel)
    if budget == 0 and c > d:  # the first level charges at least one subset
        return None
    if d <= 2 or comb(c, d - 1) <= _CIRCUIT_CAP:
        circuits = _kernel_circuits(kernel, c)

        def first_dependent(k: int, _limit: int) -> int | None:
            firsts = [_first_superset(circuit, k, c) for circuit in circuits if len(circuit) <= k]
            return _lex_index(min(firsts), c) if firsts else None

    else:
        height = len(columns[0])

        def first_dependent(k: int, limit: int) -> int | None:
            # Past `limit` tested subsets, the position reached stands in:
            # its charge is already over the budget.
            column_side = k * height < d * (c - k)
            for position, subset in enumerate(combinations(range(c), k)):
                if position == limit:
                    return position
                # Lists, not generators, feed tuple() and lcm(*...) here and
                # in rank: a tuple grown from a generator is resized on the
                # way, and 30,000 of them fill the tuple free lists (~3 MB).
                if column_side:
                    block = RationalMatrix(k, height, tuple([x for j in subset for x in columns[j]]))
                    full = k
                else:
                    outside = [j for j in range(c) if j not in subset]
                    block = RationalMatrix(d, len(outside), tuple([row[j] for row in kernel for j in outside]))
                    full = d
                if rank(block) != full:
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


# Most candidate sets `_kernel_circuits` may try before the Kruskal search
# tests subsets instead: at 10**4 it takes up to a second when every set
# spans a hyperplane of its own (Python 3.11, a shared 2-core x86 machine).
_CIRCUIT_CAP = 10**4


def _kernel_circuits(kernel: list[list[int]], c: int) -> list[list[int]]:
    """Circuits of the columns, as sorted index lists, from an integer basis
    `kernel` of their right kernel, of any dimension d.

    The kernel columns represent the dual matroid, whose hyperplanes are
    the complements of the circuits (Oxley, Matroid Theory, Prop. 2.1.6).
    Each set of d - 1 independent nonzero kernel columns, in `combinations`
    order and skipped when inside a hyperplane already found, spans a new
    one: the kernel columns orthogonal to the normal of their span.  At
    d = 1 the hyperplane is the zero columns; d = 0 has no circuit.
    """
    d = len(kernel)
    if d < 2:
        return [[j for j, x in enumerate(v) if x] for v in kernel]
    points = list(zip(*kernel))
    nonzero = [j for j in range(c) if any(points[j])]
    bits = [1 << j for j in range(c)]
    # The hyperplanes found through each column, as bit masks of columns.
    flats: list[list[int]] = [[] for _ in range(c)]
    circuits: list[list[int]] = []
    for basis in combinations(nonzero, d - 1):
        mask = sum(map(bits.__getitem__, basis))
        if any([flat & mask == mask for flat in flats[basis[0]]]):
            continue
        normal = _normal([points[j] for j in basis])
        if normal is None:
            continue
        g = gcd(*normal)  # the normal divided by it keeps the products small
        normal = [a // g for a in normal]
        values = [0] * c  # normal . point for every column, a kernel row at a time
        for a, row in zip(normal, kernel):
            values = [y + a * x for y, x in zip(values, row)]
        flat = [j for j in nonzero if not values[j]]
        mask = sum(map(bits.__getitem__, flat))
        for j in flat:
            flats[j].append(mask)
        circuits.append([j for j in nonzero if values[j]])
    return circuits


def _normal(vectors: list[tuple[int, ...]]) -> list[int] | None:
    # A nonzero vector orthogonal to the d - 1 integer d-vectors `vectors`,
    # or None when they are dependent.
    if len(vectors) == 1:
        x, y = vectors[0]
        return [-y, x]
    if len(vectors) == 2:
        (a, b, e), (x, y, z) = vectors
        normal = [b * z - e * y, e * x - a * z, a * y - b * x]
        return normal if any(normal) else None
    span, _, normals = integer_kernel([list(v) for v in vectors], len(vectors) + 1)
    return normals[0] if span == len(vectors) else None


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
    support = patterns.ZeroSupport.of(pair.r, pair._form.zeros_a, pair._form.zeros_b)
    return patterns.condition_report(support, _CONDITIONS)
