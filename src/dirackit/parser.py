"""Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" integer)?
    base   := number | identifier | "(" expr ")"
    number := integer ("/" integer)?     -- a literal rational
    integer := [0-9]+                    -- ASCII digits only
    identifier := [A-Za-z][A-Za-z0-9_]*  -- declared variable or parameter

Implicit multiplication is rejected.  "^" binds tighter than unary
minus.  A rational literal requires the "/" to sit directly between the
two integers with no whitespace ("1/2" is the literal, "1 / 2" is a
division; both denote the same value).

Polynomial input is built without rational-expression arithmetic.  A
number or a symbol raised to a power k >= 0 is one term: a coefficient
(an int or a Fraction) and a packed monomial key (see `dirackit.poly`).
A product of terms multiplies the coefficients and adds the keys, with
the degree check of `Polynomial.__mul__`.  A sum collects its terms in
one {key: coefficient} dict, normalized once into a `Polynomial` when
the sum ends.  `Polynomial` arithmetic is used only where a sum in
parentheses is multiplied, divided by a constant or raised to a power.
A power and a product of two sums are bounded before they are expanded
(see `dirackit.poly`).
Polynomials have one stored form per value, so the result is the one
any order of the same operations gives.

A `RationalExpr` is made only at a "/" by a non-constant or at a
negative power, which makes the divisor an atom of the denominator (see
`dirackit.expr`).  From there the enclosing products and sums fold left
to right in `RationalExpr` arithmetic.  It takes no gcd and does not
cancel, so a quotient keeps the numerator it was written with:
"(x1^2-1)/(x1-1)" prints as written.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZeroError, ExpressionSyntaxError, UnknownSymbolError
from .expr import RationalExpr
from .phase_space import PhaseSpace
from .poly import (SLOT_BITS, Polynomial, _check_degree, _check_power, _check_product,
                   _from_terms, _layout)

_TOKEN = re.compile(r"""
    (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# A term is a (coefficient, packed key) pair; zero is always (0, 0).
_ZERO = (0, 0)


def _tokenize(text: str):
    """(kind, text, offset) per token, whitespace dropped, then an "end"
    token, from one scan: the catch-all `bad` group matches any character
    the others do not, and the first one is an error.  A rational literal
    needs digits on both sides of its "/", so "1/" before a non-digit is
    the number 1 and a division."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


def _integer(digits: str, pos: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ExpressionSyntaxError("integer literal too long", pos) from None


class _Parser:
    """Each grammar rule returns a term, a `Polynomial` or a `RationalExpr`."""

    def __init__(self, text: str, ps: PhaseSpace):
        self.ps = ps
        self.nsyms = ps.nsyms
        self.shift = _layout(ps.nsyms)[0]
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at(self, ops: str) -> bool:
        kind, value, _ = self.tokens[self.i]
        return kind == "op" and value in ops

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind == "op" and value == op:
            return self.advance()
        raise ExpressionSyntaxError("unexpected token", pos, expected=repr(op))

    def parse(self) -> RationalExpr:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"trailing input {value!r}", pos,
                                        expected="end of expression")
        return self.rational(e)

    def expr(self):
        e = self.term()
        if not self.at("+-"):
            return e
        if isinstance(e, RationalExpr):
            return self.fold(e)
        terms = {}
        self.collect(terms, e)
        while self.at("+-"):
            minus = self.advance()[1] == "-"
            e = self.term()
            if isinstance(e, RationalExpr):
                acc = self.rational(self.finish(terms))
                return self.fold(acc - e if minus else acc + e)
            self.collect(terms, self.neg(e) if minus else e)
        return self.finish(terms)

    def fold(self, e):
        """The rest of a sum whose value so far is e, folded left to right
        in RationalExpr arithmetic."""
        while self.at("+-"):
            op = self.advance()[1]
            rhs = self.rational(self.term())
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while self.at("*/"):
            op = self.advance()[1]
            rhs = self.factor()
            e = self.mul(e, rhs) if op == "*" else self.div(e, rhs)
        return e

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return self.neg(self.factor())
        e = self.base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            e = self.power(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            sign = -1
            kind, value, pos = self.peek()
        if kind != "number" or "/" in value:
            raise ExpressionSyntaxError("bad exponent", pos, expected="an integer")
        self.advance()
        return sign * _integer(value, pos)

    def base(self):
        kind, value, pos = self.advance()
        if kind == "number":
            num, _, den = value.partition("/")
            if not den:
                return _integer(num, pos), 0
            den = _integer(den, pos)
            if den == 0:
                raise ExpressionSyntaxError("rational literal with zero denominator", pos)
            return Fraction(_integer(num, pos), den), 0
        if kind == "ident":
            try:
                index = self.ps.index_of(value)
            except UnknownSymbolError:
                raise UnknownSymbolError(value, pos) from None
            return 1, 1 << self.shift | 1 << SLOT_BITS * (self.nsyms - 1 - index)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        shown = value if value else "end of input"
        raise ExpressionSyntaxError(f"unexpected {shown!r}", pos,
                                    expected="a number, identifier, or '('")

    # -- values -------------------------------------------------------

    def polynomial(self, v) -> Polynomial:
        if type(v) is not tuple:
            return v
        c, key = v
        return _from_terms(self.nsyms, {key: c})

    def rational(self, v) -> RationalExpr:
        if isinstance(v, RationalExpr):
            return v
        return RationalExpr.from_polynomial(self.ps, self.polynomial(v))

    def collect(self, terms: dict, v) -> None:
        """terms += v, for a term or a Polynomial v."""
        get = terms.get
        if type(v) is tuple:
            c, key = v
            terms[key] = get(key, 0) + c
            return
        num, den = v._n, v._d
        for key, c in v._t.items():
            terms[key] = get(key, 0) + (num * c if den == 1 else Fraction(num * c, den))

    def finish(self, terms: dict) -> Polynomial:
        """The sum of the collected terms, normalized once."""
        return _from_terms(self.nsyms, terms)

    def neg(self, v):
        if type(v) is tuple:
            return -v[0], v[1]
        return -v

    def mul(self, a, b):
        if type(a) is tuple and type(b) is tuple:
            (ca, ka), (cb, kb) = a, b
            if not (ca and cb):
                return _ZERO
            _check_degree((ka >> self.shift) + (kb >> self.shift))
            return ca * cb, ka + kb
        if isinstance(a, RationalExpr) or isinstance(b, RationalExpr):
            a, b = self.rational(a), self.rational(b)
            _check_product(a.num, b.num)
            return a * b
        a, b = self.polynomial(a), self.polynomial(b)
        _check_product(a, b)
        return a * b

    def div(self, a, b):
        if type(b) is Polynomial and b.is_constant:
            b = b.constant_value(), 0
        if type(b) is not tuple or b[1] or isinstance(a, RationalExpr):
            return self.rational(a) / self.rational(b)
        c = b[0]
        if not c:
            raise DivisionByZeroError("division by a canonically zero expression")
        if type(a) is tuple:
            return Fraction(a[0], c), a[1]
        return a.scale(1 / Fraction(c))

    def power(self, v, k: int):
        if k < 0 or isinstance(v, RationalExpr):
            return self.rational(v).int_pow(k)
        if type(v) is not tuple:
            return v ** k
        c, key = v
        _check_degree((key >> self.shift) * k)
        _check_power(1, max(abs(c.numerator), c.denominator), k)
        return c ** k, key * k


def parse_expression(text: str, ps: PhaseSpace) -> RationalExpr:
    """Parse text into a canonical RationalExpr over ps."""
    parser = _Parser(text, ps)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply",
                                    parser.peek()[2]) from None
