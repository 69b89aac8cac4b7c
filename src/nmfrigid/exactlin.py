"""Exact rational dense linear algebra.

Rank and feasibility verdicts are yes/no facts that floating point can
flip, so no float ever enters these routines.  Matrix entries are
``fractions.Fraction`` (plain ints are accepted too), but elimination clears
each row of denominators and then runs fraction-free on Python ints, so
Fraction appears only at the boundary: in the entries passed in and in the
kernel vectors handed back.  Every pivot, here and in the simplex of
`cone`, is one `eliminate` step.  That step is lazy: each row carries its
own level, the pivot it was last rewritten at, and a pivot rewrites only
the rows nonzero in its column, so the zeros of a sparse matrix (the
generator matrix has one sparse column per zero) cost nothing; every row
it writes is the row dense Bareiss (1968) elimination writes.  Elimination
here is forward only: `rank` stops after it, and two routines finish it
by exact integer back-substitution, one loop shared by both:
`integer_kernel` into a kernel basis, which the certification core of
`rigidity` and its zero-diagonal slice V keep in integers and
`nullspace_basis` views as Fractions, and `one_signed_kernel` into the
sign test of the realize accept test, which stops at the first kernel
entry that fails it.  That test fills its generator matrix from a plan
made once per zero pattern, so it needs draw entries nonzero exactly off
the pattern's zeros, as a search with entry_low >= 1 draws them.  The
simplex of `cone` shifts by its lower bounds on integers as well.
Matrices are small (a few hundred entries at most), dense and immutable;
elimination uses the first nonzero pivot in column order so kernels and
ranks are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

Vector = tuple[Fraction, ...]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {_shown(value)} of type {type(value).__name__}")


def _shown(value) -> str:
    """A line, token or number of the input as an error quotes it: a string
    by its repr, a number as written; past 40 characters, the first 40 and "..."."""
    try:
        text = str(value)
    except ValueError:  # an int or Fraction past the str limit, or a container of one
        if not isinstance(value, (int, Fraction)):
            return f"<{type(value).__name__}>"
        text = _digits(value.numerator)
        if value.denominator != 1:
            text += f"/{_digits(value.denominator)}"
    quoted = repr(text[:40]) if isinstance(value, str) else text[:40]
    return quoted if len(text) <= 40 else f"{quoted}..."


def _digits(value: int) -> str:
    """An int as written or, past the str limit, by its sign and digit count."""
    try:
        return str(value)
    except ValueError:  # 10**e <= |value| < 10**(e + 2)
        e = (abs(value).bit_length() - 1) * 30102999566398119521373889472449 // 10**32
        return f"{'-' if value < 0 else ''}<{e + 1 + (abs(value) >= 10 ** (e + 1))}-digit int>"


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    data: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.data) != self.rows * self.cols:
            raise ValueError(
                f"matrix data has {len(self.data)} entries, expected {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable]) -> "RationalMatrix":
        rows = [tuple(_coerce(x) for x in row) for row in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(row) != n_cols for row in rows):
            raise ValueError("ragged rows")
        data = tuple(x for row in rows for x in row)
        return cls(n_rows, n_cols, data)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: int) -> "RationalMatrix":
        """Assemble a matrix from column vectors; `rows` fixes the height even
        when there are no columns."""
        for col in columns:
            if len(col) != rows:
                raise ValueError("column length does not match row count")
        data = tuple(col[i] for i in range(rows) for col in columns)
        return cls(rows, len(columns), data)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols} matrix")
        return self.data[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.data[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        data = tuple(self.data[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return RationalMatrix(self.cols, self.rows, data)


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Exact matrix product; raises on inner-dimension mismatch."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = []
    for i in range(a.rows):
        arow = a.row(i)
        for j in range(b.cols):
            s = Fraction(0)
            for k in range(a.cols):
                aik = arow[k]
                if aik:
                    s += aik * b.data[k * b.cols + j]
            out.append(s)
    return RationalMatrix(a.rows, b.cols, tuple(out))


def integer_multiple(v: Sequence) -> list[int]:
    """`v` times the lcm of its denominators: a positive multiple of `v`
    with integer entries, zero exactly where `v` is zero."""
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v]


def eliminate(rows: list[list[int]], levels: list[int], p: int, col: int, prev: int) -> int:
    """One lazy fraction-free pivot on integer rows, in place.

    Row i is levels[i] times its rational value, the row of rational
    elimination, and `prev` is the last pivot (1 before the first).  Row `p`
    is first brought up to level `prev`, x*prev // levels[p]; its entry
    piv in column `col` is the pivot.  Every other row nonzero in `col`
    becomes (piv*row_i - f*row_p) // levels[i], where f is row i's entry in
    `col`, and takes level piv, as row `p` does.  A row zero in `col` is
    left as it is, the same list, just as rational elimination leaves its
    value.  Returns piv, the `prev` of the next step.

    These are the rows of dense Bareiss (1968) elimination, each as it
    stood when a pivot last rewrote it: dense Bareiss would have rescaled a
    row zero in the pivot column by piv/prev, and those scalings multiply
    out to prev/levels[i].  Started with every level 1 at prev = 1 and run
    on rows that earlier steps have all passed through (the whole tableau
    of the simplex, the unreduced tail in `_echelon`), every rewritten row
    is a dense Bareiss row, whose entries are minors of the input, so each
    division is exact by Sylvester's identity.
    """
    row_p = rows[p]
    if levels[p] != prev:
        row_p = rows[p] = [x * prev // levels[p] for x in row_p]
    piv = row_p[col]
    for i, row_i in enumerate(rows):
        f = row_i[col]
        if f and i != p:
            rows[i] = [(piv * x - f * y) // levels[i] for x, y in zip(row_i, row_p)]
            levels[i] = piv
    levels[p] = piv
    return piv


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    """The rows of `m`, each cleared of denominators by `integer_multiple`."""
    cols = m.cols
    return [integer_multiple(m.data[i * cols : (i + 1) * cols]) for i in range(m.rows)]


def _echelon(work: list[list[int]], cols: int) -> tuple[list[list[int]], list[int], int]:
    """Forward fraction-free elimination of the integer rows `work`, which
    it consumes.

    Returns (echelon rows, pivot column list, scale): row k of the echelon
    has its first nonzero entry in pivot column k, and `scale` is the last
    pivot (1 when there is none).  Each pivot is one `eliminate` step on the
    rows not yet used as pivots, which clears the pivot column below the
    pivot and nowhere else; the pivot row then leaves `work` with its
    level.  A row left alone keeps an older level, but it reaches the
    echelon only through the step that brings it up to the last pivot, so
    the echelon rows and the scale are those of dense Bareiss elimination.
    The pivot is the first row of `work` nonzero in the column, and the
    pivot columns -- the columns outside the span of the ones before them --
    are those of rational elimination, so rank and kernel are too.  Callers
    with rational entries clear each row of denominators first
    (`_integer_rows`), a positive row scaling that changes neither the row
    space nor where zeros fall.
    """
    echelon: list[list[int]] = []
    pivots: list[int] = []
    levels = [1] * len(work)
    prev = 1
    for col in range(cols):
        if not work:
            break
        found = next((i for i, row in enumerate(work) if row[col]), None)
        if found is None:
            continue
        prev = eliminate(work, levels, found, col, prev)
        echelon.append(work.pop(found))
        del levels[found]
        pivots.append(col)
    return echelon, pivots, prev


def kernel_vector(
    echelon: list[list[int]], pivots: list[int], scale: int, free: int, cols: int
) -> list[int]:
    """The integer kernel vector of an `_echelon` result over `cols`
    columns with `scale` at the free column `free` and 0 at every other
    free column.

    Back-substitution from the last echelon row up.  The pivot entries are
    scale times the rational solution, which is integer by Cramer's rule
    (scale is, up to sign, the determinant of the pivot rows in the pivot
    columns), so each division is exact.
    """
    vec = [0] * cols
    vec[free] = scale
    for _ in _substitute(echelon, pivots, vec):
        pass
    return vec


def _substitute(echelon: list[list[int]], pivots: list[int], vec: list[int]) -> Iterator[int]:
    """Set the pivot entries of `vec`, whose free entries are already set,
    by back-substitution from the last echelon row up, yielding each one as
    it is set."""
    for row, col in zip(reversed(echelon), reversed(pivots)):
        entry = vec[col] = -sum(x * y for x, y in zip(row, vec) if x) // row[col]
        yield entry


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals: the pivots of the forward pass."""
    return len(_echelon(_integer_rows(m), m.cols)[1])


def integer_kernel(rows: list[list[int]], cols: int) -> tuple[int, int, list[list[int]]]:
    """(rank, scale, kernel basis) of the integer rows `rows`, which it
    consumes, over `cols` columns: `_echelon`, then one `kernel_vector` per
    free column in column order, each `scale` times the vector the reduced
    row echelon form gives."""
    echelon, pivots, scale = _echelon(rows, cols)
    pivot_set = set(pivots)
    vectors = [kernel_vector(echelon, pivots, scale, j, cols) for j in range(cols) if j not in pivot_set]
    return len(pivots), scale, vectors


def one_signed_kernel(rows: list[list[int]], cols: int) -> tuple[int, bool]:
    """(rank, one-signed) of the integer rows `rows`, which it consumes,
    over `cols` columns: one-signed tells whether the kernel is a line
    spanned by a vector whose entries are all nonzero and of one sign.

    `_echelon`, then, for a kernel of dimension one only, the
    back-substitution of `kernel_vector`, which stops at the first entry
    that is zero or whose sign differs from the free entry's.
    """
    echelon, pivots, scale = _echelon(rows, cols)
    if cols - len(pivots) != 1:
        return len(pivots), False
    free = next((j for j, col in enumerate(pivots) if j != col), len(pivots))
    vec = [0] * cols
    vec[free] = scale
    positive = scale > 0
    return len(pivots), all(x and (x > 0) is positive for x in _substitute(echelon, pivots, vec))


def nullspace_basis(m: RationalMatrix) -> list[Vector]:
    """Deterministic basis of the right kernel; empty iff rank equals cols.

    The vector for free column j has 1 at j, 0 at the other free columns
    and, at the pivot columns, the unique values that put it in the
    kernel: `integer_kernel`'s vector divided by the scale.
    """
    _, scale, vectors = integer_kernel(_integer_rows(m), m.cols)
    return [tuple([Fraction(x, scale) for x in vec]) for vec in vectors]


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)

def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n
