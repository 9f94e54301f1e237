"""Dense matrices of rational expressions with exact inversion.

Inversion is Gauss-Jordan elimination over the rational-function field.
Pivot choice: among the nonzero candidates in the current column, take
the entry whose numerator has the fewest monomials; ties go to the
lowest row index.  This keeps intermediate expression swell down and is
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _pivot_row(column_entries: list[RationalExpr], start: int) -> int | None:
    best = None
    best_size = None
    for r in range(start, len(column_entries)):
        e = column_entries[r]
        if e.is_zero:
            continue
        size = len(e.num)
        if best is None or size < best_size:
            best, best_size = r, size
    return best


def invert_matrix(mat: ExprMatrix) -> ExprMatrix:
    """Exact inverse over the rational-function field.

    Raises SingularMatrixError when some column has no nonzero pivot,
    i.e. the matrix is singular as a matrix of rational functions.
    """
    if mat.rows != mat.cols:
        raise ValueError("matrix must be square")
    size = mat.rows
    ps = mat.entries[0].ps
    identity = ExprMatrix.identity(size, ps)
    rows = [mat.row(i) + identity.row(i) for i in range(size)]  # [mat | identity]

    for col in range(size):
        piv = _pivot_row([rows[r][col] for r in range(size)], col)
        if piv is None:
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv_pivot = RationalExpr.constant(ps, 1) / rows[col][col]
        # An exact-zero e or b leaves e or a as it is; skip that work.
        rows[col] = [e if e.is_zero else e * inv_pivot for e in rows[col]]
        for r in range(size):
            if r == col:
                continue
            factor = rows[r][col]
            if factor.is_zero:
                continue
            rows[r] = [a if b.is_zero else a - factor * b for a, b in zip(rows[r], rows[col])]
    return ExprMatrix.from_rows([row[size:] for row in rows])
