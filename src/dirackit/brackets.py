"""Poisson and Dirac brackets: a PhaseSpace takes the first, a
DiracContext the second, and `bracket_table` builds either table.

The Poisson bracket of f and g is

    {f, g} = sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i)

over the canonical pairs x_i <-> p_i read off the two supports, each a
bitmask of the symbols an operand mentions (see `Polynomial.symbol_mask`);
both operands must be over the bracket's phase space.  Two polynomials
sum their partials' numerators in one kernel pass, `poly.sum_of_products`;
operands with atoms sum by `expr.add_products`.  For a
second-class constraint set chi_1..chi_2m the Dirac bracket is

    {f, g}_D = {f, g} - {f, chi_a} * (Delta^-1)_ab * {chi_b, g}

where Delta_ab = {chi_a, chi_b} must be invertible as a matrix of
rational functions: `constraint_system` alone builds and inverts Delta
for a constraint set, and `second_class` alone refuses a set that is
not second class.  An expression keeps its row {f, chi_a} for the last
context it was bracketed in, so a repeated operand costs one Poisson
bracket.  The corrections are one sum over the lcm of their atoms' powers
(see `dirackit.expr`), and each Dirac bracket is returned with every atom
that divides its numerator cancelled.

Delta, Delta^-1 and every bracket table are skew, so each is a
`matrix.Skew`: only the entries with a < b are built and stored.
"""

from __future__ import annotations

from operator import mul

from .errors import (
    NotSecondClassError,
    OddConstraintCountError,
    SingularMatrixError,
    TooManyConstraintsError,
)
from .expr import RationalExpr, _same_space, add_products
from .matrix import Skew, invert_matrix
from .phase_space import PhaseSpace, Record
from .poly import Polynomial, affine_rows, sum_of_products


def _support(e: RationalExpr) -> int:
    """The symbols num or den mentions, bit i for symbol i."""
    return e.num.symbol_mask() | e.den.symbol_mask()


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def poisson_bracket(f: RationalExpr, g: RationalExpr, ps: PhaseSpace) -> RationalExpr:
    """sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i) over the i the supports
    share (x_i in f and p_i in g, or p_i in f and x_i in g), in ascending
    i, x_i in f first; with none shared, the exact zero at once.  Two
    polynomials sum their partials' numerators in one `sum_of_products`;
    any other operands sum their partials by `add_products`.  An operand
    over another phase space than ps is a ValueError."""
    _same_space(ps, f)
    _same_space(ps, g)
    n = ps.n  # x_i is symbol i - 1 and p_i symbol n + i - 1; parameters come after
    fm, gm = _support(f), _support(g)
    # Bit i - 1 of xp: x_i in f and p_i in g; of px: p_i in f and x_i in g.
    xp, px = fm & gm >> n, fm >> n & gm
    shared = (xp | px) & ((1 << n) - 1)
    if not shared:
        return RationalExpr.zero(ps)
    polynomial = not (f.atoms or g.atoms)
    part = (lambda e, j: e.diff_index(j).num) if polynomial else RationalExpr.diff_index
    pairs = []
    for j in _bits(shared):
        if xp >> j & 1:
            pairs.append((part(f, j), part(g, j + n)))
        if px >> j & 1:
            pairs.append((-part(f, j + n), part(g, j)))
    if polynomial:
        return RationalExpr.from_polynomial(ps, sum_of_products(ps.nsyms, pairs))
    return add_products(RationalExpr.zero(ps), pairs)


def constraint_gradients(constraints, ps: PhaseSpace) -> tuple[dict[int, RationalExpr], ...]:
    """Per constraint, its partial along each phase-space variable it mentions."""
    variables = (1 << 2 * ps.n) - 1
    return tuple({i: chi.diff_index(i) for i in _bits(_support(chi) & variables)}
                 for chi in constraints)


def delta_matrix(constraints: list[RationalExpr], ps: PhaseSpace) -> Skew:
    """Constraint bracket matrix Delta_ab = {chi_a, chi_b}, a `Skew`.
    An odd or empty set, or more than 2n constraints, is refused first.

    An affine set makes no bracket: chi_a is c_a times sum_j A_a[z_j] z_j
    over the variables z, with an integer row A_a, plus a term free of
    them, so Delta_ab = c_a c_b sum_i (A_a[x_i] A_b[p_i] - A_a[p_i] A_b[x_i]),
    a constant."""
    k = len(constraints)
    if k < 2 or k % 2 != 0:
        raise OddConstraintCountError(f"need an even number >= 2 of constraints, got {k}")
    if k > 2 * ps.n:
        raise TooManyConstraintsError(f"{k} constraints exceed 2n = {2 * ps.n}")
    rows = affine_rows([chi.num for chi in constraints], 2 * ps.n) \
        if all(chi.is_polynomial for chi in constraints) else None
    if rows is None:
        return bracket_table(constraints, ps)
    n, nsyms = ps.n, ps.nsyms
    halves = [(num, den, row[:n], row[n:]) for num, den, row in rows]

    def bracket(a, b):
        (na, da, xa, pa), (nb, db, xb, pb) = halves[a], halves[b]
        omega = sum(map(mul, xa, pb)) - sum(map(mul, pa, xb))
        return RationalExpr.from_polynomial(ps, Polynomial.ratio(nsyms, na * nb * omega, da * db))

    return _skew(k, ps, bracket)


class ConstraintSystem(Record):
    """A constraint set with its bracket matrix Delta, a `Skew`; it may be singular."""
    __slots__ = _fields = ("ps", "constraints", "delta")

    def __init__(self, ps: PhaseSpace, constraints: tuple[RationalExpr, ...], delta: Skew):
        self._assign(ps, constraints, delta)

    @property
    def m(self) -> int:
        return len(self.constraints) // 2


class DiracContext(ConstraintSystem):
    """A second-class constraint system with Delta^-1, a `Skew`."""
    __slots__ = ("delta_inv",)
    _fields = ConstraintSystem._fields + __slots__

    def __init__(self, ps: PhaseSpace, constraints: tuple[RationalExpr, ...], delta: Skew,
                 delta_inv: Skew):
        self._assign(ps, constraints, delta, delta_inv)


def constraint_system(ps: PhaseSpace, constraints) -> ConstraintSystem:
    """The constraint set with Delta, built once and inverted once: a
    DiracContext when Delta inverts, else a plain ConstraintSystem."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)
    try:
        return DiracContext(ps, constraints, delta, invert_matrix(delta))
    except SingularMatrixError:
        return ConstraintSystem(ps, constraints, delta)


def second_class(system: ConstraintSystem | None, rank: int | None) -> DiracContext:
    """system if it is second class, else NotSecondClassError: when system is None
    or no DiracContext (Delta symbolically singular), or rank, if known, is below 2m."""
    if not isinstance(system, DiracContext):
        raise NotSecondClassError("constraint bracket matrix is symbolically singular")
    if rank in range(2 * system.m):
        raise NotSecondClassError("constraint bracket matrix is singular on the shell "
                                  f"(rank {rank} < {2 * system.m})")
    return system


def make_context(ps: PhaseSpace, constraints) -> DiracContext:
    """The DiracContext of a constraint set whose Delta inverts."""
    return second_class(constraint_system(ps, constraints), None)


def _row(f: RationalExpr, ctx: DiracContext) -> list:
    """f's constraint row in ctx, its nonzero entries (a, {f, chi_a}) in a
    order, kept in f._row for the last context (by identity) f was
    bracketed in; both are immutable, so a kept row never goes stale."""
    if f._row is not None and f._row[0] is ctx:
        return f._row[1]
    row = [(a, v) for a, v in enumerate(poisson_bracket(f, chi, ctx.ps) for chi in ctx.constraints)
           if not v.is_zero]
    f._row = (ctx, row)
    return row


def _dirac_correct(acc: RationalExpr, f_row, g_row, ctx: DiracContext) -> RationalExpr:
    """acc + {f, chi_a} (Delta^-1)_ab {g, chi_b}, that is acc - {f, chi_a}
    (Delta^-1)_ab {chi_b, g}, over the rows' nonzero entries (a, {f, chi_a})
    and (b, {g, chi_b}), summed in (a, b) order by `add_products` with a
    pair skipped before its product when (Delta^-1)_ab is an exact zero,
    and the atoms that divide the sum's numerator cancelled, also when no
    pair is left.  The sum is split by sign and read from the triangle U
    of Delta^-1: a pair with a < b adds {f, chi_a} U_ab {g, chi_b}, one
    with a > b adds -{f, chi_a} U_ba {g, chi_b}, with {f, chi_a} negated
    once for all its pairs below the diagonal."""
    upper = ctx.delta_inv.upper
    pairs = []
    for a, fa in f_row:
        minus_fa = None
        for b, gb in g_row:
            if a == b or (u := upper[min(a, b)][abs(a - b) - 1]).is_zero:
                continue
            if b < a and minus_fa is None:
                minus_fa = -fa
            pairs.append((fa * u if a < b else minus_fa * u, gb))
    return add_products(acc, pairs).cancel()


def dirac_bracket(f: RationalExpr, g: RationalExpr, ctx: DiracContext) -> RationalExpr:
    """{f, g}_D: the rows of f and g (see `_row`), {f, g}, the correction."""
    f_row, g_row = _row(f, ctx), _row(g, ctx)
    return _dirac_correct(poisson_bracket(f, g, ctx.ps), f_row, g_row, ctx)


def bracket_table(items, space) -> Skew:
    """All pairwise brackets of items, a `Skew`: only the bracket of each
    pair a < b is made.  The space picks the bracket: Poisson on a
    PhaseSpace, Dirac in a DiracContext.

    In a context every item's row (see `_row`) is taken before any pair."""
    items = list(items)
    if not items:
        raise ValueError("items must be nonempty")
    if isinstance(space, DiracContext):
        ps = space.ps
        rows = [_row(f, space) for f in items] if len(items) > 1 else None  # one item: no pair
        bracket = lambda a, b: _dirac_correct(
            poisson_bracket(items[a], items[b], ps), rows[a], rows[b], space)
    else:
        ps = space
        bracket = lambda a, b: poisson_bracket(items[a], items[b], ps)
    return _skew(len(items), ps, bracket)


def _skew(k: int, ps: PhaseSpace, bracket) -> Skew:
    """The k x k `Skew` with bracket(a, b) above the diagonal, called for
    each a < b in (a, b) order and for no other pair."""
    rows = [[bracket(a, b) for b in range(a + 1, k)] for a in range(k)]
    return Skew(ps, tuple(map(tuple, rows)))
