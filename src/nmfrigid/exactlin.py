"""Exact rational dense linear algebra.

Rank and feasibility verdicts are yes/no facts that floating point can
flip, so no float ever enters these routines.  Matrix entries are
``fractions.Fraction`` (plain ints are accepted too), but elimination clears
each row of denominators and then runs fraction-free on Python ints, so
Fraction appears only at the boundary: in the entries passed in and in the
kernel vectors handed back.  Every pivot, here and in the simplex of
`cone`, is one `eliminate` step.  Matrices are small (a few hundred entries
at most), dense and immutable; elimination uses the first nonzero pivot in
column order so kernels and ranks are bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r} of type {type(value).__name__}")


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
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        data = [Fraction(0)] * (n * n)
        for i in range(n):
            data[i * n + i] = Fraction(1)
        return cls(n, n, tuple(data))

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

    def is_strictly_positive(self) -> bool:
        return all(x > 0 for x in self.data)

    def __str__(self) -> str:
        rendered = [[str(x) for x in self.row(i)] for i in range(self.rows)]
        widths = [max(len(rendered[i][j]) for i in range(self.rows)) if self.rows else 0 for j in range(self.cols)]
        return "\n".join(
            " ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) for row in rendered
        )


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


def eliminate(rows: list[list[int]], p: int, col: int, prev: int) -> int:
    """One fraction-free Gauss-Jordan pivot on integer rows, in place.

    Clears column `col` from every row but `p` with
    (piv*row_i - f*row_p) // prev, where piv = rows[p][col] and f is row i's
    entry in `col`; row `p` stays as it is.  Returns piv, the `prev` of the
    next step.  Started at prev = 1, the rows stay det(B) times B^-1 applied
    to the input rows (up to sign), B being the pivot columns so far beside
    an implicit identity block, so every entry is a minor of the input and
    each division is exact by Sylvester's identity (Bareiss 1968).
    """
    row_p = rows[p]
    piv = row_p[col]
    for i, row_i in enumerate(rows):
        if i == p:
            continue
        f = row_i[col]
        if f:
            rows[i] = [(piv * x - f * y) // prev for x, y in zip(row_i, row_p)]
        elif piv != prev:
            rows[i] = [piv * x // prev for x in row_i]
    return piv


def _echelon(m: RationalMatrix) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan reduction of a copy of `m`.

    Returns (integer rows, pivot column list, scale): the reduced row
    echelon form of `m` is the integer rows divided by `scale`, the last
    pivot.  Each row is first cleared of denominators by the lcm of its
    own (`integer_multiple`); that positive row scaling changes neither the row space nor where
    zeros fall, so the pivot choice -- the first nonzero entry in column
    order -- and the reduced form are the same as for rational elimination.
    Each pivot is one `eliminate` step.
    """
    cols = m.cols
    work = [integer_multiple(m.data[i * cols : (i + 1) * cols]) for i in range(m.rows)]
    pivots: list[int] = []
    prev = 1
    piv_row = 0
    for col in range(cols):
        found = next((i for i in range(piv_row, m.rows) if work[i][col]), None)
        if found is None:
            continue
        if found != piv_row:
            work[piv_row], work[found] = work[found], work[piv_row]
        prev = eliminate(work, piv_row, col, prev)
        pivots.append(col)
        piv_row += 1
        if piv_row == m.rows:
            break
    return work, pivots, prev


def rank(m: RationalMatrix) -> int:
    """Exact rank over the rationals."""
    _, pivots, _ = _echelon(m)
    return len(pivots)


def nullspace_basis(m: RationalMatrix) -> list[Vector]:
    """Deterministic basis of the right kernel; empty iff rank equals cols.

    The vector for free column j has 1 at j and minus column j of the
    reduced row echelon form at the pivot columns.
    """
    work, pivots, scale = _echelon(m)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * m.cols
        vec[free] = Fraction(1)
        for row_idx, piv_col in enumerate(pivots):
            vec[piv_col] = Fraction(-work[row_idx][free], scale)
        basis.append(tuple(vec))
    return basis


def vec_neg(a: Vector) -> Vector:
    return tuple(-x for x in a)

def vec_dot(a: Vector, b: Vector) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))

def is_zero_vector(a: Vector) -> bool:
    return all(x == 0 for x in a)

def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def matvec(m: RationalMatrix, v: Vector) -> Vector:
    if len(v) != m.cols:
        raise ValueError(f"vector of length {len(v)} against {m.rows}x{m.cols} matrix")
    return tuple(vec_dot(m.row(i), v) for i in range(m.rows))
