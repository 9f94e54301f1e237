"""Dense matrices of rational expressions with exact inversion.

Inversion is Gauss-Jordan elimination over the rational-function field
by `row_reduce`, which closure's exact solves share.  Pivot choice: among
the nonzero candidates in the current column, take the entry whose
numerator has the fewest monomials; ties go to the lowest row index.
This keeps intermediate expression swell down and is fully deterministic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import SingularMatrixError
from .expr import RationalExpr
from .phase_space import PhaseSpace


@dataclass(frozen=True)
class ExprMatrix:
    rows: int
    cols: int
    entries: tuple[RationalExpr, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        if not isinstance(self.entries, tuple):
            object.__setattr__(self, "entries", tuple(self.entries))

    @classmethod
    def from_rows(cls, rows_of_entries) -> "ExprMatrix":
        rows = len(rows_of_entries)
        cols = len(rows_of_entries[0])
        flat = tuple(e for row in rows_of_entries for e in row)
        return cls(rows, cols, flat)

    @classmethod
    def identity(cls, size: int, ps: PhaseSpace) -> "ExprMatrix":
        one = RationalExpr.constant(ps, 1)
        zero = RationalExpr.zero(ps)
        flat = tuple(one if i == j else zero for i in range(size) for j in range(size))
        return cls(size, size, flat)

    def at(self, i: int, j: int) -> RationalExpr:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list[RationalExpr]:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def matmul(self, other: "ExprMatrix") -> "ExprMatrix":
        assert self.cols == other.rows
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = self.at(i, 0) * other.at(0, j)
                for k in range(1, self.cols):
                    acc = acc + self.at(i, k) * other.at(k, j)
                out.append(acc)
        return ExprMatrix(self.rows, other.cols, tuple(out))

    def transpose(self) -> "ExprMatrix":
        flat = tuple(self.at(j, i) for i in range(self.cols) for j in range(self.rows))
        return ExprMatrix(self.cols, self.rows, flat)

    def is_skew_symmetric(self) -> bool:
        return all((self.at(i, j) + self.at(j, i)).is_zero
                   for i in range(self.rows) for j in range(i, self.cols))


def row_reduce(rows: list[list], ncols: int, one, is_zero, weight) -> list[int]:
    """Reduce rows in place to reduced row echelon form over their first
    ncols columns (the later ones ride along); return the pivot columns.
    Each pivot is the column's nonzero candidate of least weight, ties to
    the lowest row; a column without one is skipped.  An exact-zero e or
    b leaves e or a as it is, so that work is skipped."""
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        piv = None
        for r in range(top, len(rows)):
            e = rows[r][col]
            if not is_zero(e) and (piv is None or weight(e) < best):
                piv, best = r, weight(e)
        if piv is None:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        inv_pivot = one / rows[top][col]
        rows[top] = [e if is_zero(e) else e * inv_pivot for e in rows[top]]
        for r in range(len(rows)):
            factor = rows[r][col]
            if r == top or is_zero(factor):
                continue
            rows[r] = [a if is_zero(b) else a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    return pivots


def invert_matrix(mat: ExprMatrix) -> ExprMatrix:
    """Exact inverse over the rational-function field.

    Raises SingularMatrixError when some column has no nonzero pivot,
    i.e. the matrix is singular as a matrix of rational functions.  A
    matrix of constants is eliminated on Fractions by the same steps and
    pivot rule (every nonzero constant has one term); a constant has one
    normal form, so the entries are the ones the general path builds.
    """
    if mat.rows != mat.cols:
        raise ValueError("matrix must be square")
    size = mat.rows
    ps = mat.entries[0].ps
    if all(e.num.is_constant and e.den.is_constant for e in mat.entries):
        unit = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        rows = [[e.num.constant_value() for e in mat.row(i)] + unit[i] for i in range(size)]
        pivots = row_reduce(rows, size, Fraction(1), operator.not_, lambda v: 1)
        inverse = [[RationalExpr.constant(ps, v) for v in row[size:]] for row in rows]
    else:
        identity = ExprMatrix.identity(size, ps)
        rows = [mat.row(i) + identity.row(i) for i in range(size)]
        pivots = row_reduce(rows, size, RationalExpr.constant(ps, 1),
                            operator.attrgetter("is_zero"), lambda e: len(e.num))
        inverse = [row[size:] for row in rows]
    missing = sorted(set(range(size)).difference(pivots))
    if missing:
        raise SingularMatrixError(f"no nonzero pivot in column {missing[0]}")
    return ExprMatrix.from_rows(inverse)
