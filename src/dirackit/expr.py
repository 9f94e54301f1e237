"""Exact rational expressions over a phase space.

A RationalExpr is a pair of polynomials num/den bound to a PhaseSpace.
Normal form: den is nonzero, has content 1 and a positive leading
coefficient under graded lex.  There is deliberately no polynomial gcd
cancellation of num against den; equality of a/b and c/d is decided by
expanding a*d - c*b to canonical polynomial form.  All values are
immutable and all operations pure.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZeroError,
    PoleAtPointError,
    UnknownSymbolError,
    ZeroDenominatorOnShellError,
)
from .phase_space import PhaseSpace
from .poly import Polynomial, reduce_by


class RationalExpr:
    __slots__ = ("ps", "num", "den", "_partials")

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
        self._partials = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_polynomial(cls, ps: PhaseSpace, poly: Polynomial) -> "RationalExpr":
        return cls(ps, poly, Polynomial.constant(ps.nsyms, 1))

    @classmethod
    def constant(cls, ps: PhaseSpace, value) -> "RationalExpr":
        return cls.from_polynomial(ps, Polynomial.constant(ps.nsyms, value))

    @classmethod
    def zero(cls, ps: PhaseSpace) -> "RationalExpr":
        return cls.constant(ps, 0)

    @classmethod
    def symbol(cls, ps: PhaseSpace, name: str) -> "RationalExpr":
        return cls.from_polynomial(ps, Polynomial.variable(ps.nsyms, ps.index_of(name)))

    # -- predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        """True when the normalized denominator is exactly 1."""
        return self.den.is_constant and self.den.constant_value() == 1

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            from .errors import NonPolynomialInputError
            raise NonPolynomialInputError(f"not a polynomial: {self}")
        return self.num

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "RationalExpr"):
        if self.ps is not other.ps and self.ps != other.ps:
            raise ValueError("operands belong to different phase spaces")

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        if self.den == other.den:
            return RationalExpr(self.ps, self.num + other.num, self.den)
        return RationalExpr(self.ps,
                            self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr(self.ps, -self.num, self.den)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
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
        return RationalExpr(self.ps, self.num.scale(value), self.den)

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
        dd = self.den.derivative(index)
        if dd.is_zero:
            return RationalExpr(self.ps, dn, self.den)
        return RationalExpr(self.ps,
                            dn * self.den - self.num * dd,
                            self.den * self.den)

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

