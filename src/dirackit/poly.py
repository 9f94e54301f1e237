"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as one signed rational content times a primitive
part: a map from packed monomials to nonzero Python ints whose gcd is 1
and whose leading coefficient is positive.  That split is unique, so
two equal polynomials always have identical stored form and dict
equality is canonical equality.  By Gauss's lemma the product of two
primitive parts is primitive again, so multiplication multiplies the
contents once and takes no gcd over the coefficients; addition rescales
both operands to a common content and takes one gcd pass over the sum.

A packed monomial is one int of fixed-width slots of SLOT_BITS bits:
the total degree in the top slot, then the exponent of each symbol in
the phase space's fixed symbol order, the first symbol highest.  Integer
order on packed monomials is therefore graded lexicographic order,
multiplying monomials is adding ints, and differentiating subtracts slot
units.  The total degree of every monomial is limited to MAX_DEGREE
(2**32 - 1); construction, multiplication and powers that would exceed
it raise DegreeOverflowError (an input error, CLI exit 2) before any
slot can carry into its neighbour.

A power is bounded before it is expanded, so that input such as
`(x1 + x2)^100000` or `2^4294967295` fails at once instead of exhausting
memory.  p**k with k >= 2 raises ExpansionBudgetError (CLI exit 2) when
p has t >= 2 terms and the C(t + k - 1, k) terms p**k can have are more
than MAX_POWER_TERMS, or when k * ceil(log2 c) is more than
MAX_POWER_BITS, where c bounds the numerator and the denominator of
every coefficient of p.  The second bound is the bit length of c**k:
unit coefficients never grow, and the first bound keeps the multinomial
coefficients small.  The parser bounds a product of parsed input the same
way (`_check_product`): when both factors have at least 2 terms, their
product is refused when its t1 * t2 terms are more than MAX_POWER_TERMS or
the two factors' coefficient bit lengths add up to more than
MAX_POWER_BITS.  Products inside the kernel, such as Dirac brackets, are
not bounded.

The public view of the terms, `Polynomial.terms`, is a read-only map
from exponent tuples to Fractions.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache

from .errors import DegreeOverflowError, ExpansionBudgetError

Monomial = tuple[int, ...]

SLOT_BITS = 32
MAX_DEGREE = (1 << SLOT_BITS) - 1
MAX_POWER_TERMS = 10_000
MAX_POWER_BITS = 1 << 16


@lru_cache(maxsize=None)
def _layout(nsyms: int):
    """(bit offset of the degree slot, struct of the exponent slots, mask
    of the lowest bit of every slot but the lowest)."""
    borrows = sum(1 << (SLOT_BITS * j) for j in range(1, nsyms + 1))
    return SLOT_BITS * nsyms, struct.Struct(f">{nsyms}I"), borrows


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise DegreeOverflowError(
            f"total degree {degree} exceeds the limit of {MAX_DEGREE}")


def _coefficient_size(p: "Polynomial") -> int:
    """A bound on the numerator and the denominator of every coefficient of p."""
    return max(abs(p._n) * max(map(abs, p._t.values()), default=1), p._d)


def _check_product(a: "Polynomial", b: "Polynomial") -> None:
    """Refuse a * b, where both have at least 2 terms, before multiplying,
    when it can have more terms or larger coefficients than a power may."""
    ta, tb = len(a._t), len(b._t)
    if ta < 2 or tb < 2:
        return
    if ta * tb > MAX_POWER_TERMS:
        raise ExpansionBudgetError(
            f"a product of a {ta}-term and a {tb}-term polynomial can have more than "
            f"{MAX_POWER_TERMS} terms")
    if ((_coefficient_size(a) - 1).bit_length()
            + (_coefficient_size(b) - 1).bit_length() > MAX_POWER_BITS):
        raise ExpansionBudgetError(
            f"a product can have coefficients of more than {MAX_POWER_BITS} bits")


def _check_power(terms: int, size: int, k: int) -> None:
    """Refuse the k-th power of a base with `terms` terms whose largest
    coefficient numerator or denominator is `size`, before expanding it."""
    if k < 2:
        return
    if math.comb(terms + k - 1, k) > MAX_POWER_TERMS:
        raise ExpansionBudgetError(
            f"a {terms}-term polynomial to the power {k} can have more than "
            f"{MAX_POWER_TERMS} terms")
    if k * (size - 1).bit_length() > MAX_POWER_BITS:
        raise ExpansionBudgetError(
            f"a power {k} can have coefficients of more than {MAX_POWER_BITS} bits")


def _pack(nsyms: int, mono: Monomial) -> int:
    if len(mono) != nsyms or any(e < 0 for e in mono):
        raise ValueError(f"not an exponent vector over {nsyms} symbols: {mono!r}")
    degree = sum(mono)
    _check_degree(degree)
    shift, slots, _ = _layout(nsyms)
    return degree << shift | int.from_bytes(slots.pack(*mono), "big")


def _unpack(nsyms: int, key: int) -> Monomial:
    shift, slots, _ = _layout(nsyms)
    return slots.unpack(((key & ((1 << shift) - 1)).to_bytes(shift // 8, "big")))


def _make(nsyms: int, num: int, den: int, ints: dict[int, int], lead: int) -> "Polynomial":
    p = object.__new__(Polynomial)
    p.nsyms = nsyms
    p._n = num
    p._d = den
    p._t = ints
    p._lead = lead
    p._plan = p._mask = None
    return p


def _fraction(num: int, den: int) -> Fraction:
    return Fraction(num) if den == 1 else Fraction(num, den)


def _normalized(nsyms: int, num: int, den: int, ints: dict[int, int]) -> "Polynomial":
    """num/den * ints with the common factor and sign of ints moved into
    the content; num/den must be in lowest terms."""
    if not ints:
        return Polynomial.zero(nsyms)
    lead = max(ints)
    g = math.gcd(*ints.values())
    if ints[lead] < 0:
        g = -g
    if g != 1:
        ints = {k: v // g for k, v in ints.items()}
        h = math.gcd(g, den)
        num, den = num * (g // h), den // h
    return _make(nsyms, num, den, ints, lead)


def _from_terms(nsyms: int, terms: dict[int, Fraction]) -> "Polynomial":
    """The sum of the rational (int or Fraction) coefficients on their
    packed keys, zeros dropped, over one common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return _normalized(nsyms, 1, den, {k: c.numerator * (den // c.denominator)
                                       for k, c in terms.items() if c})


class Terms(Mapping):
    """Read-only {exponent tuple: Fraction} view of a polynomial's terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "Polynomial"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly._t)

    def __iter__(self):
        nsyms = self._poly.nsyms
        return (_unpack(nsyms, k) for k in self._poly._t)

    def __getitem__(self, mono) -> Fraction:
        p = self._poly
        try:
            return _fraction(p._n * p._t[_pack(p.nsyms, mono)], p._d)
        except (TypeError, ValueError, struct.error, DegreeOverflowError):
            raise KeyError(mono) from None


class Polynomial:
    # The content is _n/_d in lowest terms with _d > 0; the zero
    # polynomial has content 1, no terms and leading key 0.
    __slots__ = ("nsyms", "_n", "_d", "_t", "_lead", "_plan", "_mask")

    def __init__(self, nsyms: int, terms: Mapping[Monomial, Fraction] | None = None):
        p = _from_terms(nsyms, {_pack(nsyms, m): Fraction(c)
                               for m, c in (terms or {}).items() if c != 0})
        self.nsyms = nsyms
        self._n, self._d, self._t, self._lead = p._n, p._d, p._t, p._lead
        self._plan = self._mask = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nsyms: int) -> "Polynomial":
        return _make(nsyms, 1, 1, {}, 0)

    @staticmethod
    def constant(nsyms: int, value) -> "Polynomial":
        if type(value) is int:
            num, den = value, 1
        elif isinstance(value, Fraction):
            num, den = value.as_integer_ratio()
        else:
            num, den = Fraction(value).as_integer_ratio()
        return Polynomial.ratio(nsyms, num, den)

    @staticmethod
    def ratio(nsyms: int, num: int, den: int) -> "Polynomial":
        """The constant num/den for ints num and den != 0, put in lowest
        terms by one gcd."""
        if num == 0:
            return Polynomial.zero(nsyms)
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        return _make(nsyms, num // g, den // g, {0: 1}, 0)

    @staticmethod
    def variable(nsyms: int, index: int) -> "Polynomial":
        mono = tuple(1 if i == index else 0 for i in range(nsyms))
        key = _pack(nsyms, mono)
        return _make(nsyms, 1, 1, {key: 1}, key)

    # -- queries ------------------------------------------------------

    @property
    def terms(self) -> Terms:
        return Terms(self)

    def __len__(self) -> int:
        """Number of terms."""
        return len(self._t)

    @property
    def is_zero(self) -> bool:
        return not self._t

    @property
    def is_constant(self) -> bool:
        return self._lead == 0

    def constant_value(self) -> Fraction:
        return _fraction(self._n * self._t.get(0, 0), self._d)

    def signed_content(self) -> tuple[int, int]:
        """The content with the sign of the leading coefficient, as
        (numerator, denominator) in lowest terms, denominator positive."""
        return self._n, self._d

    def total_degree(self) -> int:
        return self._lead >> _layout(self.nsyms)[0]

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lex order (canonical print order)."""
        nsyms, num, den = self.nsyms, self._n, self._d
        return [(_unpack(nsyms, k), _fraction(num * v, den))
                for k, v in sorted(self._t.items(), reverse=True)]

    def symbol_mask(self) -> int:
        """The symbols that occur in some term, bit i for symbol i: one
        scan of the terms, made once."""
        if self._mask is None:
            union = 0
            for k in self._t:
                union |= k
            self._mask = sum(1 << i for i, e in enumerate(_unpack(self.nsyms, union)) if e)
        return self._mask

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._t, other._t
        if not b:
            return self
        if not a:
            return other
        # Common content num/den: both scale factors sa, sb are integers.
        num = math.gcd(self._n, other._n)
        den = math.lcm(self._d, other._d)
        sa = self._n // num * (den // self._d)
        sb = other._n // num * (den // other._d)
        out = dict(a) if sa == 1 else {k: v * sa for k, v in a.items()}
        get = out.get
        for k, v in b.items():
            s = get(k, 0) + v * sb
            if s:
                out[k] = s
            else:
                del out[k]
        return _normalized(self.nsyms, num, den, out)

    def __neg__(self) -> "Polynomial":
        if not self._t:
            return self
        return _make(self.nsyms, -self._n, self._d, self._t, self._lead)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self._t, other._t
        if not a or not b:
            return Polynomial.zero(self.nsyms)
        shift = _layout(self.nsyms)[0]
        _check_degree((self._lead >> shift) + (other._lead >> shift))
        # A primitive single term has coefficient 1: multiplying by it
        # shifts the keys and cannot merge two of them.
        if len(b) == 1:
            out = {k + other._lead: v for k, v in a.items()} if other._lead else a
        elif len(a) == 1:
            out = {self._lead + k: v for k, v in b.items()} if self._lead else b
        else:
            out = {}
            _accumulate(out, a, b, 1)
        num, den = self._n * other._n, self._d * other._d
        if den != 1:
            g = math.gcd(num, den)
            num, den = num // g, den // g
        return _make(self.nsyms, num, den, out, self._lead + other._lead)

    def exact_quotient(self, divisor: "Polynomial") -> "Polynomial | None":
        """self / divisor when divisor divides self exactly, else None.

        Division of the primitive parts: one divisor is a Groebner basis of
        its ideal, so it divides exactly iff graded-lex division leaves no
        remainder, and by Gauss's lemma every quotient coefficient is then
        an integer.  The first leading monomial that the divisor's does
        not divide, or the first coefficient that is not an integer, ends
        the division.  Both extremes of a product are products of the
        extremes, so the lowest monomials are checked first.
        """
        if not self._t:
            return self
        nsyms, dlead = self.nsyms, divisor._lead
        if not _divides(nsyms, min(divisor._t), min(self._t)):
            return None
        dlc = divisor._t[dlead]
        work, quotient = dict(self._t), {}
        while work:
            lm = max(work)
            q, r = divmod(work[lm], dlc)
            if r or not _divides(nsyms, dlead, lm):
                return None
            mono = lm - dlead
            quotient[mono] = q
            for k, v in divisor._t.items():
                key = mono + k
                s = work.get(key, 0) - q * v
                if s:
                    work[key] = s
                else:
                    del work[key]
        content = _fraction(self._n, self._d) / _fraction(divisor._n, divisor._d)
        return _make(nsyms, content.numerator, content.denominator, quotient,
                     self._lead - dlead)

    def scale(self, factor) -> "Polynomial":
        f = Fraction(factor)
        if f == 0 or not self._t:
            return Polynomial.zero(self.nsyms)
        num, den = self._n * f.numerator, self._d * f.denominator
        g = math.gcd(num, den)
        return _make(self.nsyms, num // g, den // g, self._t, self._lead)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power on a bare polynomial")
        _check_degree(self.total_degree() * k)
        _check_power(len(self._t), _coefficient_size(self), k)
        if len(self._t) == 1:
            # The primitive part of one term is its monomial: only the
            # content and the key are raised.
            return _make(self.nsyms, self._n ** k, self._d ** k, {self._lead * k: 1},
                         self._lead * k)
        result = Polynomial.constant(self.nsyms, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and evaluation --------------------------------------

    def derivative(self, index: int) -> "Polynomial":
        shift = _layout(self.nsyms)[0]
        at = SLOT_BITS * (self.nsyms - 1 - index)
        unit = (1 << shift) + (1 << at)
        out = {}
        for k, v in self._t.items():
            e = (k >> at) & MAX_DEGREE
            if e:
                out[k - unit] = v * e
        return _normalized(self.nsyms, self._n, self._d, out)

    def evaluate(self, values) -> float:
        plan = self._plan
        if plan is None:
            plan = self._plan = self._evaluation_plan()
        total = 0.0
        for term, factors in plan:
            for i, e in factors:
                term *= values[i] ** e
            total += term
        return total

    def _evaluation_plan(self):
        """(float coefficient, ((symbol index, exponent), ...)) per term."""
        num, den = self._n, self._d
        return [(num * v / den,
                 tuple((i, e) for i, e in enumerate(_unpack(self.nsyms, k)) if e))
                for k, v in self._t.items()]

    # -- equality -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nsyms == other.nsyms
                and self._n == other._n and self._d == other._d and self._t == other._t)

    def __hash__(self):
        return hash((self._n, self._d, frozenset(self._t.items())))

    def __repr__(self):
        return f"Polynomial({self.nsyms}, {dict(self.terms)!r})"


def _accumulate(out: dict[int, int], a: dict[int, int], b: dict[int, int],
                scale: int) -> None:
    """out += scale * a * b over packed keys; a key whose sum is 0 is dropped."""
    get = out.get
    items = list(b.items())
    for k1, v1 in a.items():
        v1 *= scale
        for k2, v2 in items:
            k = k1 + k2
            s = get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                del out[k]


def sum_of_products(nsyms: int, pairs, empty: list | None = None) -> Polynomial:
    """sum(f * g for f, g in pairs) in one int dict, over one common
    denominator (the lcm of the products' content denominators), with
    one normalization at the end instead of one per product and per
    partial sum.  The stored form is canonical, so the result is the one
    folding `*` and `+` gives.  Each product's total degree is checked
    as `*` checks it; pairs with a zero operand are skipped.  A list
    `empty` gets each position in pairs where the running sum is 0.
    """
    live = [(i, f, g) for i, (f, g) in enumerate(pairs) if f._t and g._t]
    den = math.lcm(*(f._d * g._d for _, f, g in live))
    shift = _layout(nsyms)[0]
    out = {}
    get = out.get
    for i, f, g in live:
        _check_degree((f._lead >> shift) + (g._lead >> shift))
        scale = f._n * g._n * (den // (f._d * g._d))
        if len(f._t) == 1:
            f, g = g, f
        if len(g._t) > 1:
            _accumulate(out, f._t, g._t, scale)
        else:
            # A primitive single term has coefficient 1: it shifts the keys of f.
            lead = g._lead
            for k, v in f._t.items():
                k += lead
                s = get(k, 0) + v * scale
                if s:
                    out[k] = s
                else:
                    del out[k]
        if not out and empty is not None:
            empty.append(i)
    return _normalized(nsyms, 1, den, out)


def _divides(nsyms: int, a: int, b: int) -> bool:
    """Whether packed monomial a divides packed monomial b: b - a borrows
    across no slot boundary."""
    diff = b - a
    return diff >= 0 and not (diff ^ a ^ b) & _layout(nsyms)[2]


def reduce_by(poly: Polynomial, divisors: list[Polynomial]) -> Polynomial:
    """Remainder of multivariate division by an ordered divisor list.

    Graded-lex leading terms; at each step the first divisor whose
    leading monomial divides the current one is used.  The result is
    weakly equal to the input: they agree wherever all divisors vanish.
    It runs on Fraction coefficients over packed keys, dividing by each
    divisor's primitive part, and normalizes the remainder once.  When
    no divisor's leading monomial divides any term of poly, poly itself
    is the remainder and is returned, found before any Fraction is built;
    a constant divisor divides every term.  A zero divisor is skipped.
    """
    nsyms = poly.nsyms
    divisors = [d for d in divisors if d._t]
    if not any(_divides(nsyms, d._lead, k) for k in poly._t for d in divisors):
        return poly
    divs = [(d._lead, d._t, Fraction(-1, d._t[d._lead])) for d in divisors]
    work = {k: Fraction(poly._n * v, poly._d) for k, v in poly._t.items()}
    remainder = {}
    while work:
        lm = max(work)
        for dlm, dt, scale in divs:
            if _divides(nsyms, dlm, lm):
                _accumulate(work, {lm - dlm: work[lm]}, dt, scale)
                break
        else:
            remainder[lm] = work.pop(lm)
    return _from_terms(nsyms, remainder)


def affine_rows(polys: list[Polynomial], count: int) -> list[tuple[int, int, list[int]]] | None:
    """None unless every polynomial of the nonempty list has total degree
    at most 1, read from the leading monomials before anything is built.
    Else, per polynomial, its signed content num, den and the primitive
    integer coefficients of its first `count` symbols, so that its
    partial along symbol i < count is the constant num/den *
    coefficients[i].  Each term is read once: the lowest set bit of a
    degree-1 key is its symbol's exponent slot."""
    nsyms = polys[0].nsyms
    shift = _layout(nsyms)[0]
    if any(p._lead >> shift > 1 for p in polys):
        return None
    rows = []
    for p in polys:
        row = [0] * count
        for key, c in p._t.items():
            i = nsyms - 1 - ((key & -key).bit_length() - 1) // SLOT_BITS
            if key and i < count:
                row[i] = c
        rows.append((p._n, p._d, row))
    return rows


def coefficient_rows(polys: list[Polynomial]) -> list[list[Fraction]]:
    """One row per monomial in the union of the supports, in descending
    graded-lex order, holding each polynomial's coefficient there."""
    keys = set()
    for p in polys:
        keys.update(p._t)
    zero = Fraction(0)
    return [[_fraction(p._n * p._t[k], p._d) if k in p._t else zero for p in polys]
            for k in sorted(keys, reverse=True)]
