"""Exact rational expressions over a phase space.

A RationalExpr is a pair of polynomials num/den bound to a PhaseSpace.
Normal form: den is nonzero, has content 1 and a positive leading
coefficient under graded lex.  There is deliberately no polynomial gcd
cancellation of num against den; equality of a/b and c/d is decided by
expanding a*d - c*b to canonical polynomial form.  All values are
immutable and all operations pure.

A denominator is opaque unless the expression is written over a
FactorTable: distinct primitive polynomials (the denominators of a Dirac
context's inverse of Delta) of which den is a product of powers.  Such
an expression also carries one exponent per factor.  Between operands
over the same table (or a polynomial), `*` adds exponents, `+` and `-`
scale each numerator by the powers the other has more of (the lcm of the
denominators) instead of cross-multiplying, and a partial raises the
exponent of each factor that depends on the variable by one instead of
squaring den.  `cancel` divides the numerator by each factor as long as
it divides exactly.  Every other operation, and any operand pair with an
opaque non-polynomial side, uses the opaque arithmetic, whose results
are opaque.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .errors import (
    DivisionByZeroError,
    NonPolynomialInputError,
    PoleAtPointError,
    UnknownSymbolError,
    ZeroDenominatorOnShellError,
)
from .phase_space import PhaseSpace
from .poly import Polynomial, reduce_by, sum_of_products


class FactorTable:
    """Distinct primitive polynomials with positive leading coefficients;
    the denominators written over the table are products of their powers."""

    __slots__ = ("factors", "supports", "zero", "_products")

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.supports = tuple(f.symbols_used() for f in self.factors)
        self.zero = (0,) * len(self.factors)
        self._products = {}

    def product(self, exps: tuple[int, ...]) -> Polynomial:
        """prod(factor ** e), expanded once per exponent vector.  A product
        of primitive polynomials with positive leading coefficients is one
        too, so it is already a denominator in normal form."""
        p = self._products.get(exps)
        if p is None:
            p = Polynomial.constant(self.factors[0].nsyms, 1)
            for f, e in zip(self.factors, exps):
                if e:
                    p = p * f ** e
            self._products[exps] = p
        return p


def over_factor_table(entries) -> list["RationalExpr"]:
    """The entries, each one with a non-constant denominator written over
    one shared table of their distinct denominators."""
    dens = list(dict.fromkeys(e.den for e in entries if not e.is_polynomial))
    if not dens:
        return list(entries)
    table = FactorTable(dens)
    return [e if e.is_polynomial else
            _over(e.ps, e.num, table, tuple(int(d == e.den) for d in dens))
            for e in entries]


def _over(ps: PhaseSpace, num: Polynomial, table: FactorTable,
          exps: tuple[int, ...]) -> "RationalExpr":
    """num / prod(table.factors ** exps); a polynomial keeps no table."""
    if num.is_zero or not any(exps):
        return RationalExpr.from_polynomial(ps, num)
    e = object.__new__(RationalExpr)
    e.ps, e.num, e.den = ps, num, table.product(exps)
    e._table, e._exps, e._partials = table, exps, None
    return e


class RationalExpr:
    # _exps, one exponent per factor of _table, is set only when _table is.
    __slots__ = ("ps", "num", "den", "_table", "_exps", "_partials")

    def __init__(self, ps: PhaseSpace, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise DivisionByZeroError("denominator is the zero polynomial")
        if num.is_zero:
            den = Polynomial.constant(ps.nsyms, 1)
        else:
            n, d = den.signed_content()
            if (n, d) != (1, 1):
                inv = Fraction(d, n)
                num = num.scale(inv)
                den = den.scale(inv)
        self.ps = ps
        self.num = num
        self.den = den
        self._table = None
        self._partials = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_polynomial(cls, ps: PhaseSpace, poly: Polynomial) -> "RationalExpr":
        """poly over 1, a denominator already in normal form."""
        e = object.__new__(cls)
        e.ps, e.num, e.den = ps, poly, Polynomial.constant(ps.nsyms, 1)
        e._table = e._partials = None
        return e

    @classmethod
    def constant(cls, ps: PhaseSpace, value) -> "RationalExpr":
        return cls.from_polynomial(ps, Polynomial.constant(ps.nsyms, value))

    @classmethod
    def zero(cls, ps: PhaseSpace) -> "RationalExpr":
        return cls.from_polynomial(ps, Polynomial.zero(ps.nsyms))

    @classmethod
    def symbol(cls, ps: PhaseSpace, name: str) -> "RationalExpr":
        return cls.from_polynomial(ps, Polynomial.variable(ps.nsyms, ps.index_of(name)))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        """True when the denominator is exactly 1: the normal form makes
        every constant denominator 1."""
        return self.den.is_constant

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise NonPolynomialInputError(f"not a polynomial: {self}")
        return self.num

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "RationalExpr"):
        if self.ps is not other.ps and self.ps != other.ps:
            raise ValueError("operands belong to different phase spaces")

    def _common_table(self, other: "RationalExpr") -> FactorTable | None:
        """The table both operands can be written over, if any: a
        polynomial can be written over every table."""
        t, u = self._table, other._table
        if t is u:
            return t
        if t is None:
            return u if self.den.is_constant else None
        if u is None:
            return t if other.den.is_constant else None
        return None

    def _exps_over(self, table: FactorTable) -> tuple[int, ...]:
        return table.zero if self._table is None else self._exps

    def _with_num(self, num: Polynomial) -> "RationalExpr":
        """num over this expression's denominator, which is already in
        normal form: a nonzero num needs no normalization."""
        if self._table is not None:
            return _over(self.ps, num, self._table, self._exps)
        if num.is_zero:
            return RationalExpr.from_polynomial(self.ps, num)
        e = object.__new__(RationalExpr)
        e.ps, e.num, e.den, e._table, e._partials = self.ps, num, self.den, None, None
        return e

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        if (self._table or other._table) and (table := self._common_table(other)):
            a, b = self._exps_over(table), other._exps_over(table)
            if a == b:
                return _over(self.ps, self.num + other.num, table, a)
            lcm = tuple(map(max, a, b))
            return _over(self.ps, self.num * table.product(tuple(map(sub, lcm, a)))
                         + other.num * table.product(tuple(map(sub, lcm, b))), table, lcm)
        if self.den == other.den:
            return RationalExpr(self.ps, self.num + other.num, self.den)
        return RationalExpr(self.ps,
                            self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return self._with_num(-self.num)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        if (self._table or other._table) and (table := self._common_table(other)):
            return _over(self.ps, self.num * other.num, table,
                         tuple(map(add, self._exps_over(table), other._exps_over(table))))
        return RationalExpr(self.ps, self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        if other.is_zero:
            raise DivisionByZeroError("division by a canonically zero expression")
        return RationalExpr(self.ps, self.num * other.den, self.den * other.num)

    def int_pow(self, k: int) -> "RationalExpr":
        if k < 0:
            if self.is_zero:
                raise DivisionByZeroError("zero to a negative power")
            return RationalExpr(self.ps, self.den ** (-k), self.num ** (-k))
        return RationalExpr(self.ps, self.num ** k, self.den ** k)

    def scale(self, value) -> "RationalExpr":
        return self._with_num(self.num.scale(value))

    def cancel(self) -> "RationalExpr":
        """Divide each factor of the table out of num as often as it
        divides exactly; an opaque expression is returned as it is."""
        table = self._table
        if table is None:
            return self
        num, exps = self.num, list(self._exps)
        for i, f in enumerate(table.factors):
            while exps[i]:
                quotient = num.exact_quotient(f)
                if quotient is None:
                    break
                num, exps[i] = quotient, exps[i] - 1
        return self if num is self.num else _over(self.ps, num, table, tuple(exps))

    # -- calculus -----------------------------------------------------

    def diff(self, var: str) -> "RationalExpr":
        """Exact partial derivative; var must be a coordinate or momentum."""
        if not self.ps.is_variable(var):
            raise UnknownSymbolError(var)
        return self.diff_index(self.ps.index_of(var))

    def diff_index(self, index: int) -> "RationalExpr":
        """The partial along variable `index`, computed once per expression."""
        if self._partials is None:
            self._partials = {}
        if index not in self._partials:
            self._partials[index] = self._partial(index)
        return self._partials[index]

    def _partial(self, index: int) -> "RationalExpr":
        dn = self.num.derivative(index)
        if self._table is not None:
            return self._factored_partial(index, dn)
        dd = self.den.derivative(index)
        if dd.is_zero:
            return RationalExpr(self.ps, dn, self.den)
        return RationalExpr(self.ps,
                            dn * self.den - self.num * dd,
                            self.den * self.den)

    def _factored_partial(self, index: int, dn: Polynomial) -> "RationalExpr":
        """d(N / prod f_i^e_i) = (dN * prod_H f_i - N * sum_H e_i df_i
        prod_{H - i} f_j) / prod f_i^(e_i + [i in H]), where H holds the
        factors present that depend on the variable."""
        table, exps = self._table, self._exps
        hit = [i for i, e in enumerate(exps) if e and index in table.supports[i]]
        num = dn
        for i in hit:
            num = num * table.factors[i]
        for i in hit:
            term = self.num * table.factors[i].derivative(index).scale(exps[i])
            for j in hit:
                if j != i:
                    term = term * table.factors[j]
            num = num - term
        return _over(self.ps, num, table,
                     tuple(e + (i in hit) for i, e in enumerate(exps)))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, point: dict[str, float]) -> float:
        values = [float(point[s]) for s in self.ps.symbols]
        return self.evaluate_vector(values)

    def evaluate_vector(self, values) -> float:
        d = self.den.evaluate(values)
        if abs(d) < 1e-12:
            raise PoleAtPointError(f"denominator {d!r} below pole threshold")
        return self.num.evaluate(values) / d

    # -- constraint reduction -----------------------------------------

    def reduce_mod(self, constraints: list[Polynomial]) -> "RationalExpr":
        """Remainders of num and den under multivariate division.

        The result is weakly equal to self: equal wherever all
        constraints vanish and the denominator stays nonzero.
        """
        num = reduce_by(self.num, constraints)
        den = reduce_by(self.den, constraints)
        if den.is_zero:
            raise ZeroDenominatorOnShellError("denominator reduces to 0 on shell")
        return RationalExpr(self.ps, num, den)

    # -- equality and printing ----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalExpr):
            return NotImplemented
        return (self.num * other.den - other.num * self.den).is_zero

    __hash__ = None

    def __str__(self) -> str:
        if self.is_polynomial:
            return format_polynomial(self.num, self.ps.symbols)
        return "({})/({})".format(format_polynomial(self.num, self.ps.symbols),
                                  format_polynomial(self.den, self.ps.symbols))

    def __repr__(self) -> str:
        return f"<RationalExpr {self}>"


def add_products(start: RationalExpr, pairs) -> RationalExpr:
    """start + a_1*b_1 + a_2*b_2 + ..., skipping pairs with an exact zero.

    When start and every operand are polynomials on start's phase space,
    the sum is one pass of `poly.sum_of_products`; the result is
    canonical, so it equals the fold.  Otherwise it folds acc + a*b left
    to right, and opaque and factor-table results print as that fold
    does.  A skipped product would leave num and den as they are, and
    acc - a*b builds the same num and den as acc + (-a)*b.  With no pair
    left the sum is start itself.
    """
    ps = start.ps
    pairs = [(a, b) for a, b in pairs if not (a.is_zero or b.is_zero)]
    if not pairs:
        return start
    if start.is_polynomial and all(
            a.ps is ps and b.ps is ps and a.is_polynomial and b.is_polynomial
            for a, b in pairs):
        one = start.den
        return RationalExpr(ps, sum_of_products(
            ps.nsyms, [(start.num, one)] + [(a.num, b.num) for a, b in pairs]), one)
    acc = start
    for a, b in pairs:
        acc = acc + a * b
    return acc


def format_polynomial(poly: Polynomial, names) -> str:
    """Canonical text: terms in descending graded lex, symbols in declaration order."""
    if poly.is_zero:
        return "0"
    pieces: list[str] = []
    for mono, coeff in poly.sorted_terms():
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(mono) if e > 0]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)

