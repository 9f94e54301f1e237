"""Exact inversion of a square matrix given by its rows.

A symbolic matrix is inverted by Gauss-Jordan elimination over the
rational-function field, `row_reduce`, which exact ranks and solves
share.  Pivot choice: among the nonzero candidates in the current
column, take the entry whose numerator has the fewest monomials; ties go
to the lowest row index.  This keeps intermediate expression swell down
and is fully deterministic.  A matrix of constants is inverted
fraction-free on packed Python ints instead (`_invert_integers`).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import isqrt, lcm, prod

from .errors import SingularMatrixError
from .expr import RationalExpr
from .poly import Polynomial


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


def row_reduce_fractions(rows: list[list], ncols: int) -> list[int]:
    """`row_reduce` over the rationals, on rows of Fractions: the pivot is
    the first nonzero entry."""
    return row_reduce(rows, ncols, Fraction(1), operator.not_, lambda v: 1)


def _invert_integers(rows: list[list[int]]) -> tuple[int, list[list[int]]]:
    """(d, d * M^-1) for a nonsingular integer matrix M, d = +-det M: one
    fraction-free (Bareiss 1968) Gauss-Jordan pass over [M | I], each row
    one int of w-bit two's-complement slots, the current column in the
    lowest.  A step reads each row's head slot f, centred mod 2^w, puts
    (p * row - f * pivot_row) / prev, whose head is 0, in place of every
    row but the pivot row, and shifts every head off.  Every slot is a
    minor of [M | I] (Sylvester's identity), so it is below
    sqrt(prod_i (|row_i|^2 + 1)) < 2^(w-2) in size (Hadamard's bound)
    and divides exactly by prev; so does the packed int, slot by slot.
    The pivot is the first nonzero entry in the column, as in
    `row_reduce_fractions`: each entry here is a nonzero multiple of the
    one there, so both meet the same first column without a pivot."""
    size = len(rows)
    w = isqrt(prod(sum(a * a for a in row) + 1 for row in rows)).bit_length() + 2
    mask, half = (1 << w) - 1, 1 << (w - 1)
    rows = [sum(a << w * j for j, a in enumerate(row)) + (1 << w * (size + i))
            for i, row in enumerate(rows)]
    prev = 1
    for col in range(size):
        heads = [((x & mask) ^ half) - half for x in rows]
        piv = next((r for r in range(col, size) if heads[r]), None)
        if piv is None:
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        heads[col], heads[piv] = heads[piv], heads[col]
        top, p = rows[col], heads[col]
        rows = [(x - p) >> w if r == col else ((p * x - f * top) >> w) // prev
                for r, (x, f) in enumerate(zip(rows, heads))]
        prev = p
    bias = sum(half << w * j for j in range(size))  # every slot read as nonnegative
    return prev, [[(y >> w * j & mask) - half for j in range(size)]
                  for y in (x + bias for x in rows)]


def invert_matrix(rows) -> tuple[tuple[RationalExpr, ...], ...]:
    """Exact inverse over the rational-function field, as a tuple of rows.

    Raises ValueError unless every row is as long as there are rows, and
    SingularMatrixError when some column has no nonzero pivot, i.e. the
    matrix is singular as a matrix of rational functions, naming the
    first such column.  A matrix A of constants is inverted on ints by
    `_invert_integers`, from the (num, den) contents of scale * A to the
    entries scale * v / d, each put in lowest terms by one gcd
    (`Polynomial.ratio`), with no `Fraction`; an inverse is unique and a
    constant has one normal form, so the entries are the ones elimination
    over rational functions builds.
    """
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("matrix must be square")
    ps = rows[0][0].ps
    if all(e.num.is_constant and e.den.is_constant for row in rows for e in row):
        values = [[(0, 1) if e.num.is_zero else e.num.signed_content() for e in row]
                  for row in rows]
        scale = lcm(*(den for row in values for _, den in row))
        d, scaled = _invert_integers([[n * (scale // den) for n, den in row] for row in values])
        nsyms = ps.nsyms
        return tuple(tuple(RationalExpr.from_polynomial(ps, Polynomial.ratio(nsyms, scale * v, d))
                           for v in row) for row in scaled)
    one, zero = RationalExpr.constant(ps, 1), RationalExpr.zero(ps)
    work = [[*row, *(one if i == j else zero for j in range(size))]
            for i, row in enumerate(rows)]
    pivots = row_reduce(work, size, one, operator.attrgetter("is_zero"), lambda e: len(e.num))
    missing = sorted(set(range(size)).difference(pivots))
    if missing:
        raise SingularMatrixError(f"no nonzero pivot in column {missing[0]}")
    return tuple(tuple(row[size:]) for row in work)
