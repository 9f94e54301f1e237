"""Exact rational expressions over a phase space.

A RationalExpr is a numerator polynomial over a denominator that is a
product of powers of atoms: interned primitive polynomials with a
positive leading coefficient.  The expression keeps the sorted
(atom, exponent) pairs in `atoms` and their expanded product in `den`.
A `/` by a non-constant makes the primitive part of the divisor's
numerator an atom; `*` adds exponents; `+` and `-` scale each numerator
by the powers the other side has more of, so a sum is written over the
lcm of the denominators (over the shorter atom tuple when the two
expand to the same denominator); a partial raises the exponent of each atom
that depends on the variable by one.  Distinct atoms are treated as
coprime and no polynomial gcd is ever taken, so equality of a/b and c/d
is decided by expanding a*d - c*b.  `cancel` divides the numerator by
each atom as long as it divides exactly.  All values are immutable and
all operations pure.

Atoms are interned once per process by value and ordered by value (their
terms in descending graded lex, the greatest atom first), never by the
order in which they were interned, so a printed form does not depend on
what the process computed before.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .errors import (
    DivisionByZeroError,
    NonPolynomialInputError,
    PoleAtPointError,
    UnknownSymbolError,
    ZeroDenominatorOnShellError,
)
from .phase_space import PhaseSpace
from .poly import Polynomial, reduce_by, sum_of_products


class _Atom:
    """An interned primitive polynomial with a positive leading coefficient."""

    __slots__ = ("poly", "key", "support")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.key = tuple(sorted(poly._t.items(), reverse=True))
        self.support = poly.symbols_used()

    def __lt__(self, other: "_Atom") -> bool:
        return self.key > other.key


_ATOMS: dict[Polynomial, _Atom] = {}
_PRODUCTS: dict[tuple, Polynomial] = {}


def _atom(poly: Polynomial) -> _Atom:
    atom = _ATOMS.get(poly)
    if atom is None:
        atom = _ATOMS[poly] = _Atom(poly)
    return atom


def _product(atoms: tuple) -> Polynomial:
    """prod(atom ** e) over nonempty atoms, expanded once per tuple.  A
    product of primitive polynomials with positive leading coefficients
    is one too, so it is a denominator in normal form."""
    p = _PRODUCTS.get(atoms)
    if p is None:
        factors = [atom.poly if e == 1 else atom.poly ** e for atom, e in atoms]
        p = factors[0]
        for f in factors[1:]:
            p = p * f
        _PRODUCTS[atoms] = p
    return p


@lru_cache(maxsize=None)
def _one(nsyms: int) -> Polynomial:
    return Polynomial.constant(nsyms, 1)


def _times(num: Polynomial, atoms: tuple) -> Polynomial:
    return num * _product(atoms) if atoms else num


def _combine(a: tuple, b: tuple, op) -> tuple:
    """The atoms of both, an atom in both with exponent op(e_a, e_b):
    `add` for a product, `max` for the lcm of a sum."""
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for atom, e in b:
        exps[atom] = op(exps.get(atom, 0), e)
    return tuple(sorted(exps.items()))


def _missing(lcm: tuple, atoms: tuple) -> tuple:
    """The powers by which atoms falls short of lcm, a multiple of it."""
    if atoms == lcm:
        return ()
    have = dict(atoms)
    return tuple((atom, e - have.get(atom, 0)) for atom, e in lcm if e > have.get(atom, 0))


class RationalExpr:
    __slots__ = ("ps", "num", "den", "atoms", "_partials")

    def __init__(self, ps: PhaseSpace, num: Polynomial, den: Polynomial):
        """num / den for a nonzero polynomial den; a non-constant den's
        primitive part becomes one atom."""
        if den.is_zero:
            raise DivisionByZeroError("denominator is the zero polynomial")
        n, d = den.signed_content()
        if (n, d) != (1, 1):
            inv = Fraction(d, n)
            num, den = num.scale(inv), den.scale(inv)
        self._set(ps, num, () if den.is_constant else ((_atom(den), 1),))

    def _set(self, ps: PhaseSpace, num: Polynomial, atoms: tuple) -> None:
        if num.is_zero or not atoms:
            atoms, den = (), _one(ps.nsyms)
        else:
            den = _product(atoms)
        self.ps, self.num, self.den, self.atoms, self._partials = ps, num, den, atoms, None

    @classmethod
    def _build(cls, ps: PhaseSpace, num: Polynomial, atoms: tuple) -> "RationalExpr":
        """num / prod(atom ** e); a zero num or no atom is a polynomial."""
        e = object.__new__(cls)
        e._set(ps, num, atoms)
        return e

    # -- constructors -------------------------------------------------

    @classmethod
    def from_polynomial(cls, ps: PhaseSpace, poly: Polynomial) -> "RationalExpr":
        """poly over 1, a denominator already in normal form."""
        return cls._build(ps, poly, ())

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
        """True when there is no atom; the denominator is then exactly 1."""
        return not self.atoms

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial:
            raise NonPolynomialInputError(f"not a polynomial: {self}")
        return self.num

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "RationalExpr"):
        if self.ps is not other.ps and self.ps != other.ps:
            raise ValueError("operands belong to different phase spaces")

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        a, b = self.atoms, other.atoms
        if a == b:
            return RationalExpr._build(self.ps, self.num + other.num, a)
        if self.den == other.den:  # atoms that share factors, one product
            return RationalExpr._build(self.ps, self.num + other.num, b if len(b) < len(a) else a)
        lcm = _combine(a, b, max)
        return RationalExpr._build(self.ps, _times(self.num, _missing(lcm, a))
                                   + _times(other.num, _missing(lcm, b)), lcm)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._build(self.ps, -self.num, self.atoms)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        return RationalExpr._build(self.ps, self.num * other.num,
                                   _combine(self.atoms, other.atoms, add))

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        self._check(other)
        if other.is_zero:
            raise DivisionByZeroError("division by a canonically zero expression")
        return self * RationalExpr(self.ps, other.den, other.num)

    def int_pow(self, k: int) -> "RationalExpr":
        if k < 0:
            if self.is_zero:
                raise DivisionByZeroError("zero to a negative power")
            return RationalExpr(self.ps, self.den, self.num).int_pow(-k)
        return RationalExpr._build(self.ps, self.num ** k,
                                   tuple((atom, e * k) for atom, e in self.atoms if k))

    def scale(self, value) -> "RationalExpr":
        return RationalExpr._build(self.ps, self.num.scale(value), self.atoms)

    def cancel(self) -> "RationalExpr":
        """Divide each atom out of num, greatest atom first, as often as
        it divides exactly."""
        num, atoms = self.num, []
        for atom, e in self.atoms:
            while e and (quotient := num.exact_quotient(atom.poly)) is not None:
                num, e = quotient, e - 1
            if e:
                atoms.append((atom, e))
        return self if num is self.num else RationalExpr._build(self.ps, num, tuple(atoms))

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
        """d(N / prod f_i^e_i) = (dN * prod_H f_i - N * sum_H e_i df_i
        prod_{H - i} f_j) / prod f_i^(e_i + [i in H]), where H holds the
        atoms that depend on the variable."""
        hit = [(atom.poly, e) for atom, e in self.atoms if index in atom.support]
        num = self.num.derivative(index)
        for f, _ in hit:
            num = num * f
        for f, e in hit:
            term = self.num * f.derivative(index).scale(e)
            for g, _ in hit:
                if g is not f:
                    term = term * g
            num = num - term
        return RationalExpr._build(self.ps, num, tuple(
            (atom, e + (index in atom.support)) for atom, e in self.atoms))

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
        if self.atoms == other.atoms:
            return self.num == other.num
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
    to right, so each partial sum is over the lcm of the denominators so
    far, and one that is exactly zero starts again from denominator 1.
    A skipped product would leave num and atoms as they are, and
    acc - a*b builds the same num and atoms as acc + (-a)*b.  With no
    pair left the sum is start itself.
    """
    ps = start.ps
    pairs = [(a, b) for a, b in pairs if not (a.is_zero or b.is_zero)]
    if not pairs:
        return start
    if start.is_polynomial and all(
            a.ps is ps and b.ps is ps and a.is_polynomial and b.is_polynomial
            for a, b in pairs):
        one = start.den
        return RationalExpr.from_polynomial(ps, sum_of_products(
            ps.nsyms, [(start.num, one)] + [(a.num, b.num) for a, b in pairs]))
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
