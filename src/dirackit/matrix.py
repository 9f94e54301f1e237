"""Exact inversion of a skew-symmetric matrix, kept as one triangle.

A skew-symmetric matrix (Delta, Delta^-1, a bracket table) is a `Skew`:
only its entries above the diagonal are built and stored, and `m[a, b]`
reads any entry with its sign.  `invert_matrix` takes a `Skew` and
returns one.  A symbolic matrix is inverted by Gauss-Jordan elimination
over the rational-function field, `row_reduce`, which exact ranks and
solves share.  Pivot choice: among the nonzero candidates in the current
column, take the entry whose numerator has the fewest monomials; ties go
to the lowest row index.  This keeps intermediate expression swell down
and is fully deterministic.  A matrix of constants is inverted on
numbers instead, fraction-free on packed Python ints, two columns at a
time (`_invert_skew_integers`); a singular one is named by Gauss-Jordan
on Fractions (`row_reduce_fractions`), whose first-nonzero pivots name
its first column without a pivot.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain, islice
from math import isqrt, lcm, prod

from .errors import SingularMatrixError
from .expr import RationalExpr
from .phase_space import PhaseSpace, Record
from .poly import Polynomial


class Skew(Record):
    """A k x k skew-symmetric matrix of RationalExprs on the phase space
    ps, stored as its strict upper triangle: `upper[a]` holds the entries
    (a, b) for b = a+1..k-1, so `upper[k - 1]` is empty.  `m[a, b]` is the
    one accessor of an entry: the stored one above the diagonal, its
    negation below and zero on it.  A Skew is not iterable; `entries()`
    reads the triangle in (a, b) order."""
    __slots__ = _fields = ("ps", "upper")
    __iter__ = None

    def __init__(self, ps: PhaseSpace, upper: tuple):
        self._assign(ps, upper)

    def __len__(self) -> int:
        return len(self.upper)

    def __getitem__(self, pair) -> RationalExpr:
        a, b = pair
        k = len(self.upper)
        if not (0 <= a < k and 0 <= b < k):
            raise IndexError(f"entry {pair} outside a {k} x {k} matrix")
        if a < b:
            return self.upper[a][b - a - 1]
        if a > b:
            return -self.upper[b][a - b - 1]
        return RationalExpr.zero(self.ps)

    def entries(self):
        """The entries above the diagonal, in (a, b) order."""
        return chain.from_iterable(self.upper)


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


def _invert_skew_integers(rows: list[list[int]]) -> tuple[int, list[list[int]]] | None:
    """(pf, pf * M^-1) for a skew integer matrix M, pf = +-Pf M, or None
    when M is singular.  A fraction-free Gauss-Jordan pass over [M | I]
    that pivots on the 2 x 2 blocks [[0, b], [-b, 0]] of columns c, c + 1
    (Bunch 1982).  Each row is one int of w-bit two's-complement slots,
    the current column in the lowest, read as residues mod 2^w centred on
    0; a step shifts the two pivot columns off, and an exact division of
    every slot is one of the int.  After columns 0..c-1
    the state is pi * G, with G exact Gauss-Jordan's and pi = Pf M[:c, :c]
    (M as permuted so far); its rows c, c + 1 then hold 0, b and -b, 0
    there, b = Pf M[:c+2, :c+2].  When b is 0, index c + 1 trades places,
    as a row and as a column, with the first c + j whose entry in row c
    is not 0 (none: M is singular); the rows of the inverse are put back
    at the end.  Pivot rows c and c + 1 become -row_{c+1} and row_c; every
    other row, with heads f0 and f1, becomes (b * row + f0 * row_{c+1} -
    f1 * row_c) / pi.  Every slot is a Pfaffian of a principal submatrix
    of M, or 0 or 1, so below (prod_i (|row_i|^2 + 1))^(1/4) < 2^(w-2) in
    size (Hadamard's bound on its square), half the bits of a minor, and
    every division is exact."""
    size = len(rows)
    if size % 2:
        return None
    w = isqrt(isqrt(prod(sum(a * a for a in row) + 1 for row in rows))).bit_length() + 2
    mask, half = (1 << w) - 1, 1 << (w - 1)
    bias = sum(half << w * j for j in range(2 * size))  # every slot read as nonnegative
    rows = [sum(a << w * j for j, a in enumerate(row)) + (1 << w * (size + i))
            for i, row in enumerate(rows)]
    order, prev = list(range(size)), 1
    for c in range(0, size, 2):
        b = (((rows[c] >> w) & mask) ^ half) - half  # slot (c, c) holds 0
        if not b:
            top = rows[c] + bias
            j = next((j for j in range(2, size - c) if (top >> w * j) & mask != half), None)
            if j is None:
                return None
            for r, x in enumerate(rows):  # swap the slots of columns c + 1 and c + j
                d = (((x + bias) >> w * j) & mask) - (((x + bias) >> w) & mask)
                rows[r] = x + (d << w) - (d << w * j)
            rows[c + 1], rows[c + j] = rows[c + j], rows[c + 1]
            order[c + 1], order[c + j] = order[c + j], order[c + 1]
            b = (((rows[c] >> w) & mask) ^ half) - half
        top, low = rows[c], rows[c + 1]
        out = []
        for x in rows:
            f0 = ((x & mask) ^ half) - half
            f1 = ((((x - f0) >> w) & mask) ^ half) - half
            out.append(((b * x + f0 * low - f1 * top) >> 2 * w) // prev)
        out[c], out[c + 1] = (-low - b) >> 2 * w, (top - (b << w)) >> 2 * w
        rows, prev = out, b
    inverse = [None] * size
    for i, y in zip(order, (x + bias for x in rows)):
        inverse[i] = [(y >> w * j & mask) - half for j in range(size)]
    return prev, inverse


def _check_pivots(pivots: list[int], size: int) -> None:
    """SingularMatrixError naming the first of size columns with no pivot."""
    missing = sorted(set(range(size)).difference(pivots))
    if missing:
        raise SingularMatrixError(f"no nonzero pivot in column {missing[0]}")


def invert_matrix(matrix: Skew) -> Skew:
    """Exact inverse of a `Skew` over the rational-function field, as a
    `Skew`: only the k(k - 1)/2 entries above its diagonal are built.

    Raises TypeError for anything but a `Skew`, and SingularMatrixError
    when some column has no nonzero pivot, i.e. the matrix is singular as
    a matrix of rational functions, naming the first such column.  A
    matrix of constants is inverted on numbers, by
    `_invert_skew_integers` on the integer rows of scale * M (filled from
    the triangle, scale the lcm of the (num, den) contents' denominators)
    to the entries scale * v / d of d * (scale * M)^-1, each put in lowest
    terms by one gcd (`Polynomial.ratio`); an inverse is unique and a
    constant has one normal form, so the entries are the ones elimination
    over rational functions builds.  The kernel declines exactly the
    singular matrices; `row_reduce_fractions` of their int rows then
    names the column, since pivots are read from those columns alone.  A
    symbolic Skew is reduced as [M | I] by `row_reduce`.
    """
    if not isinstance(matrix, Skew):
        raise TypeError(f"invert_matrix takes a Skew, not {type(matrix).__name__}")
    ps, size = matrix.ps, len(matrix)
    cells = [(a, b) for a in range(size) for b in range(a + 1, size)]
    entries = list(matrix.entries())
    if all(e.num.is_constant and e.den.is_constant for e in entries):
        contents = [(0, 1) if e.num.is_zero else e.num.signed_content() for e in entries]
        scale = lcm(*(den for _, den in contents))
        ints = [[0] * size for _ in range(size)]
        for (a, b), (num, den) in zip(cells, contents):
            ints[a][b] = num * (scale // den)
            ints[b][a] = -ints[a][b]
        found = _invert_skew_integers(ints)
        if found is None:
            rows = [[Fraction(v) for v in row] for row in ints]
            _check_pivots(row_reduce_fractions(rows, size), size)
        d, scaled = found
        inverse = (RationalExpr.from_polynomial(
            ps, Polynomial.ratio(ps.nsyms, scale * scaled[a][b], d)) for a, b in cells)
    else:
        one, zero = RationalExpr.constant(ps, 1), RationalExpr.zero(ps)
        work = [[matrix[a, b] for b in range(size)]
                + [one if a == b else zero for b in range(size)] for a in range(size)]
        _check_pivots(row_reduce(work, size, one, operator.attrgetter("is_zero"),
                                 lambda e: len(e.num)), size)
        inverse = (work[a][size + b] for a, b in cells)
    return Skew(ps, tuple(tuple(islice(inverse, size - a - 1)) for a in range(size)))
