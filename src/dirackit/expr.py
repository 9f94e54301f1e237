"""Exact rational expressions over a phase space.

A RationalExpr is a numerator polynomial over a denominator that is a
product of powers of atoms: interned primitive polynomials with a
positive leading coefficient.  The expression keeps the sorted
(atom, exponent) pairs in `atoms` and their expanded product in `den`.
A `/` by a non-constant makes the primitive part of the divisor's
numerator an atom; `*` adds exponents; a sum, `+`, `-` or `add_products`,
is one kernel pass over the lcm of the denominators, written over the
atoms a left fold of `+` would leave (see `_sum_atoms`); a partial
raises the exponent of each atom that depends on the variable by one.
Distinct atoms are treated as
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
    ZeroDenominatorOnShellError,
)
from .phase_space import PhaseSpace
from .poly import Polynomial, reduce_by, sum_of_products


class _Atom:
    """An interned primitive polynomial with a positive leading coefficient."""

    __slots__ = ("poly", "key")

    def __init__(self, poly: Polynomial):
        self.poly = poly
        self.key = tuple(sorted(poly._t.items(), reverse=True))

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


def _same_space(ps: PhaseSpace, e: "RationalExpr") -> None:
    """Refuse an expression over another phase space than ps: `is`
    first, then `==`."""
    if e.ps is not ps and e.ps != ps:
        raise ValueError("operands belong to different phase spaces")


@lru_cache(maxsize=None)
def _one(nsyms: int) -> Polynomial:
    return Polynomial.constant(nsyms, 1)


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


def _sum_atoms(a: tuple, b: tuple) -> tuple:
    """The atoms of a sum over a and over b: their lcm, or the shorter (a
    on a tie) when the two expand alike, which needs neither to divide
    the other and equal degrees, since atoms are not constants."""
    lcm = _combine(a, b, max)
    degree = lambda atoms: sum(t.poly.total_degree() * e for t, e in atoms)
    if lcm in (a, b) or degree(a) != degree(b) or _product(a) != _product(b):
        return lcm
    return b if len(b) < len(a) else a


def _missing(lcm: tuple, atoms: tuple) -> tuple:
    """The powers by which atoms falls short of lcm, a multiple of it."""
    if atoms == lcm:
        return ()
    have = dict(atoms)
    return tuple((atom, e - have.get(atom, 0)) for atom, e in lcm if e > have.get(atom, 0))


class RationalExpr:
    __slots__ = ("ps", "num", "den", "atoms", "_partials", "_row")

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
        if not atoms or num.is_zero:
            atoms, den = (), _one(num.nsyms)
        else:
            den = _product(atoms)
        self.ps, self.num, self.den, self.atoms = ps, num, den, atoms
        self._partials = self._row = None

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

    def __add__(self, other: "RationalExpr") -> "RationalExpr":
        _same_space(self.ps, other)
        lcm = _combine(self.atoms, other.atoms, max)
        return _one_pass(self, [(_one(self.ps.nsyms), other.num, other.atoms)], lcm)

    def __sub__(self, other: "RationalExpr") -> "RationalExpr":
        return self + (-other)

    def __neg__(self) -> "RationalExpr":
        return RationalExpr._build(self.ps, -self.num, self.atoms)

    def __mul__(self, other: "RationalExpr") -> "RationalExpr":
        _same_space(self.ps, other)
        return RationalExpr._build(self.ps, self.num * other.num,
                                   _combine(self.atoms, other.atoms, add))

    def __truediv__(self, other: "RationalExpr") -> "RationalExpr":
        _same_space(self.ps, other)
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
        hit = [(atom.poly, e) for atom, e in self.atoms if atom.poly.symbol_mask() >> index & 1]
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
            (atom, e + (atom.poly.symbol_mask() >> index & 1)) for atom, e in self.atoms))

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
        constraints vanish and the denominator stays nonzero.  A
        polynomial whose numerator no constraint reduces is self; an
        expression with atoms is rebuilt over its reduced denominator,
        whose primitive part becomes one atom.
        """
        num = reduce_by(self.num, constraints)
        den = reduce_by(self.den, constraints)
        if den.is_zero:
            raise ZeroDenominatorOnShellError("denominator reduces to 0 on shell")
        if num is self.num and self.is_polynomial:
            return self
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
    """start + a_1*b_1 + a_2*b_2 + ..., skipping pairs with an exact zero,
    printed as the left fold acc = acc + a*b prints it, in one pass
    (`_one_pass`).  With no pair left the sum is start itself.
    """
    ps = start.ps
    pairs = [(a, b) for a, b in pairs if not (a.is_zero or b.is_zero)]
    if not pairs:
        return start
    lcm, run = start.atoms, []
    for a, b in pairs:
        if a.ps is not ps or b.ps is not ps:
            _same_space(ps, a)
            _same_space(ps, b)
        p = _combine(a.atoms, b.atoms, add)
        if p != lcm:
            lcm = _combine(lcm, p, max)
        run.append((a.num, b.num, p))
    return _one_pass(start, run, lcm)


def _one_pass(start: RationalExpr, run: list, lcm: tuple) -> RationalExpr:
    """start + a*b for each (a, b, atoms of a*b) of run in one kernel pass
    over lcm, the lcm of all their atoms, each a*b times the powers of
    atoms it lacks.  The atoms the fold would end with are tracked:
    `_sum_atoms` at each step, none after an exactly zero partial sum
    (where the kernel's running sum is empty); an exact division by the
    powers of lcm they lack finishes the sum."""
    ps = start.ps
    if not lcm:  # polynomials: no atom to track
        return RationalExpr._build(ps, sum_of_products(
            ps.nsyms, [(start.num, start.den)] + [(a, b) for a, b, _ in run]), lcm)
    lacks = _missing(lcm, start.atoms)
    terms = [(start.num, _product(lacks) if lacks else _one(ps.nsyms))]
    terms += [(a, b) if p == lcm else (a * b, _product(_missing(lcm, p))) for a, b, p in run]
    empty = []
    num = sum_of_products(ps.nsyms, terms, empty)
    atoms = start.atoms
    for i, (_, _, p) in enumerate(run, 1):
        atoms = () if i in empty else atoms if atoms == p else _sum_atoms(atoms, p)
    if atoms != lcm:
        num = num.exact_quotient(_product(_missing(lcm, atoms)))
    return RationalExpr._build(ps, num, atoms)


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
