"""Poisson and Dirac brackets: a PhaseSpace takes the first, a
DiracContext the second, and `bracket_table` builds either table.

The Poisson bracket of f and g is

    {f, g} = sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i)

with the canonical pairing x_i <-> p_i.  For a second-class constraint
set chi_1..chi_2m the Dirac bracket is

    {f, g}_D = {f, g} - {f, chi_a} * (Delta^-1)_ab * {chi_b, g}

where Delta_ab = {chi_a, chi_b} must be invertible as a matrix of
rational functions.  The denominators of Delta^-1's entries are products
of powers of atoms (see `dirackit.expr`), so the corrections are summed
over the lcm of their denominators, and each Dirac bracket is returned
with every atom that divides its numerator cancelled.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import (
    NotSecondClassError,
    OddConstraintCountError,
    SingularMatrixError,
    TooManyConstraintsError,
)
from .expr import RationalExpr, add_products
from .matrix import invert_matrix
from .phase_space import PhaseSpace, Record
from .poly import affine_rows


def _support(e: RationalExpr) -> frozenset[int]:
    """The symbols num or den mentions; each polynomial finds its own once."""
    num = e.num.symbols_used()
    return num if e.den.is_constant else num | e.den.symbols_used()


def poisson_bracket(f: RationalExpr, g: RationalExpr, ps: PhaseSpace) -> RationalExpr:
    """sum_i (df/dx_i * dg/dp_i - df/dp_i * dg/dx_i) over the pairs whose
    two partials can both be nonzero, summed by `add_products`: a
    skipped term is an exact zero, and with none left the bracket is."""
    f_has, g_has = _support(f), _support(g)
    pairs = []
    for i in range(1, ps.n + 1):
        xi = ps.coordinate_index(i)
        pi = ps.momentum_index(i)
        if xi in f_has and pi in g_has:
            pairs.append((f.diff_index(xi), g.diff_index(pi)))
        if pi in f_has and xi in g_has:
            pairs.append((-f.diff_index(pi), g.diff_index(xi)))
    zero = RationalExpr.zero(ps)
    return add_products(zero, pairs) if pairs else zero


def constraint_gradients(constraints, ps: PhaseSpace) -> tuple[dict[int, RationalExpr], ...]:
    """Per constraint, its partial along each phase-space variable it mentions."""
    nvars = 2 * ps.n
    return tuple({i: chi.diff_index(i) for i in sorted(_support(chi)) if i < nvars}
                 for chi in constraints)


def delta_matrix(constraints: list[RationalExpr], ps: PhaseSpace) -> tuple:
    """Constraint bracket matrix Delta_ab = {chi_a, chi_b} by rows; exactly skew.

    An affine set makes no bracket: chi_a is c_a times sum_j A_a[z_j] z_j
    over the variables z, with an integer row A_a, plus a term free of
    them, so Delta_ab = c_a c_b sum_i (A_a[x_i] A_b[p_i] - A_a[p_i] A_b[x_i]),
    a constant."""
    k = len(constraints)
    if k < 2 or k % 2 != 0:
        raise OddConstraintCountError(f"need an even number >= 2 of constraints, got {k}")
    rows = affine_rows([chi.num for chi in constraints], 2 * ps.n) \
        if all(chi.is_polynomial for chi in constraints) else None
    if rows is None:
        return bracket_table(constraints, ps)
    n = ps.n
    halves = [(num, den, row[:n], row[n:]) for num, den, row in rows]

    def bracket(a, b):
        (na, da, xa, pa), (nb, db, xb, pb) = halves[a], halves[b]
        omega = sum(map(mul, xa, pb)) - sum(map(mul, pa, xb))
        return RationalExpr.constant(ps, Fraction(na * nb * omega, da * db))

    return _skew(k, ps, bracket)


class ConstraintSystem(Record):
    """A constraint set with its bracket matrix Delta by rows; it may be singular."""
    __slots__ = _fields = ("ps", "constraints", "delta")

    def __init__(self, ps: PhaseSpace, constraints: tuple[RationalExpr, ...], delta: tuple):
        self._assign(ps, constraints, delta)

    @property
    def m(self) -> int:
        return len(self.constraints) // 2


class DiracContext(ConstraintSystem):
    """A second-class constraint system with the rows of Delta^-1."""
    __slots__ = ("delta_inv",)
    _fields = ConstraintSystem._fields + __slots__

    def __init__(self, ps: PhaseSpace, constraints: tuple[RationalExpr, ...], delta: tuple,
                 delta_inv: tuple):
        self._assign(ps, constraints, delta, delta_inv)


def make_context(ps: PhaseSpace, constraints) -> DiracContext:
    """Validate a second-class constraint set and cache Delta and its inverse."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)  # rejects an odd or empty set first
    k = len(constraints)
    if k > 2 * ps.n:
        raise TooManyConstraintsError(f"{k} constraints exceed 2n = {2 * ps.n}")
    try:
        delta_inv = invert_matrix(delta)
    except SingularMatrixError as exc:
        raise NotSecondClassError(
            "constraint bracket matrix is symbolically singular") from exc
    return DiracContext(ps, constraints, delta, delta_inv)


def _dirac_correct(acc: RationalExpr, f_chi, g_chi, ctx: DiracContext) -> RationalExpr:
    """acc + {f, chi_a} (Delta^-1)_ab {g, chi_b}, that is acc - {f, chi_a}
    (Delta^-1)_ab {chi_b, g}, summed in (a, b) order by `add_products` with
    a pair skipped before its product when one of its three factors is an
    exact zero, and the atoms that divide the sum's numerator cancelled."""
    k, inv = len(ctx.constraints), ctx.delta_inv
    return add_products(acc, [(f_chi[a] * inv[a][b], g_chi[b])
                              for a in range(k) if not f_chi[a].is_zero
                              for b in range(k)
                              if not (inv[a][b].is_zero or g_chi[b].is_zero)]).cancel()


def dirac_bracket(f: RationalExpr, g: RationalExpr, ctx: DiracContext) -> RationalExpr:
    return bracket_table([f, g], ctx)[0][1]


def bracket_table(items, space) -> tuple:
    """All pairwise brackets of items, by rows; exactly skew-symmetric by
    construction.  The space picks the bracket: Poisson on a PhaseSpace,
    Dirac in a DiracContext.

    In a context each item's row {item, chi_a} is computed once (none for
    a single item), and {f, g}_D = {f, g} + {f, chi_a} (Delta^-1)_ab {g, chi_b}."""
    items = list(items)
    if not items:
        raise ValueError("items must be nonempty")
    if isinstance(space, DiracContext):
        ps, chis = space.ps, space.constraints
        rows = [[poisson_bracket(f, chi, ps) for chi in chis]
                for f in items] if len(items) > 1 else None  # one item: no pair
        bracket = lambda a, b: _dirac_correct(
            poisson_bracket(items[a], items[b], ps), rows[a], rows[b], space)
    else:
        ps = space
        bracket = lambda a, b: poisson_bracket(items[a], items[b], ps)
    return _skew(len(items), ps, bracket)


def _skew(k: int, ps: PhaseSpace, bracket) -> tuple:
    """The k x k rows with bracket(a, b) above the diagonal, its negation
    below and zeros on it."""
    zero = RationalExpr.zero(ps)
    entries = [[zero] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            v = bracket(a, b)
            entries[a][b] = v
            entries[b][a] = -v
    return tuple(map(tuple, entries))
