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

The tokens are the plain strings of one regex scan of the text.  A
bad character anywhere in it is reported before any other error; the
character offset an error reports is found by a second scan with the
same regex, and only then.

Polynomial input is built without rational-expression arithmetic.  A
number or a symbol raised to a power k >= 0 is one term: a coefficient
(an int or a Fraction) and a packed monomial key (see `dirackit.poly`).
A product of terms multiplies the coefficients and adds the keys, with
the degree check of `Polynomial.__mul__`.  A sum collects its terms in
one {key: coefficient} dict, normalized once when the sum ends into a
polynomial `RationalExpr`.  A sum in parentheses is therefore a
`RationalExpr`, and its products, quotients and powers use
`RationalExpr` arithmetic; a sum of them still collects into one dict.
A power and a product of two sums are bounded before they are expanded
(see `dirackit.poly`).
Polynomials have one stored form per value, so the result is the one
any order of the same operations gives.

A non-polynomial `RationalExpr` is made only at a "/" by a non-constant
or at a negative power, which makes the divisor an atom of the
denominator (see `dirackit.expr`).  From there the enclosing products
and sums fold left to right in `RationalExpr` arithmetic.  It takes no
gcd and does not cancel, so a quotient keeps the numerator it was
written with: "(x1^2-1)/(x1-1)" prints as written.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DivisionByZeroError, ExpressionSyntaxError, UnknownSymbolError
from .expr import RationalExpr
from .phase_space import PhaseSpace
from .poly import SLOT_BITS, _check_degree, _check_power, _check_product, _from_terms, _layout

_TOKEN = re.compile(r"[0-9]+(?:/[0-9]+)?|[A-Za-z][A-Za-z0-9_]*|[-+*/^()]|\S")
# The first characters of the tokens the grammar reads: a number, an
# identifier or an operator.  Any other token is one bad character.
_STARTS = frozenset("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-+*/^()")

# A term is a (coefficient, packed key) pair; zero is always (0, 0).
_ZERO = (0, 0)


class _Parser:
    """Each grammar rule returns a term or a `RationalExpr`.  The tokens
    are those of `_TOKEN.findall`, then "" for the end; a token's kind is
    its first character.  A rational literal needs digits on both sides
    of its "/", so "1/" before a non-digit is the number 1 and a division."""

    def __init__(self, text: str, ps: PhaseSpace):
        self.text = text
        self.ps = ps
        self.nsyms = ps.nsyms
        self.shift = _layout(ps.nsyms)[0]
        self.tokens = _TOKEN.findall(text)
        for i, tok in enumerate(self.tokens):
            if tok[0] not in _STARTS:
                raise self.error(f"unexpected character {tok!r}", i)
        self.tokens.append("")
        self.i = self.depth = self.outer = 0  # outer: token where nesting last rose from 0

    def offset(self, i: int) -> int:
        """The offset of token i, from a second scan: only errors need it."""
        for j, m in enumerate(_TOKEN.finditer(self.text)):
            if j == i:
                return m.start()
        return len(self.text)

    def error(self, message: str, i: int, expected: str = "") -> ExpressionSyntaxError:
        return ExpressionSyntaxError(message, self.offset(i), expected)

    def literal(self, digits: str, i: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.error("integer literal too long", i) from None

    def parse(self) -> RationalExpr:
        e = self.expr()
        tok = self.tokens[self.i]
        if tok:
            raise self.error(f"trailing input {tok!r}", self.i, "end of expression")
        return self.rational(e)

    def expr(self):
        """Terms and polynomial RationalExprs collect into one dict; from
        the first other RationalExpr on, the sum folds."""
        e = self.term()
        if self.tokens[self.i] not in ("+", "-"):
            return e
        terms = {}
        while type(e) is tuple or e.is_polynomial:
            self.collect(terms, e)
            op = self.tokens[self.i]
            if op not in ("+", "-"):
                return self.finish(terms)
            self.i += 1
            e = self.neg(self.term()) if op == "-" else self.term()
        return self.fold(self.finish(terms) + e)

    def fold(self, e):
        """The rest of a sum whose value so far is e, folded left to right
        in RationalExpr arithmetic."""
        while (op := self.tokens[self.i]) in ("+", "-"):
            self.i += 1
            rhs = self.rational(self.term())
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self):
        e = self.factor()
        while (op := self.tokens[self.i]) in ("*", "/"):
            self.i += 1
            rhs = self.factor()
            e = self.mul(e, rhs) if op == "*" else self.div(e, rhs)
        return e

    def factor(self):
        if self.tokens[self.i] == "-":
            self.outer = self.outer if self.depth else self.i
            self.depth += 1
            self.i += 1
            e = self.factor()
            self.depth -= 1
            return self.neg(e)
        e = self.base()
        if self.tokens[self.i] == "^":
            self.i += 1
            e = self.power(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        if self.tokens[self.i] == "-":
            self.i += 1
            sign = -1
        i = self.i
        tok = self.tokens[i]
        if not tok[:1].isdigit() or "/" in tok:
            raise self.error("bad exponent", i, "an integer")
        self.i = i + 1
        return sign * self.literal(tok, i)

    def base(self):
        i = self.i
        tok = self.tokens[i]
        self.i = i + 1
        if tok[:1].isalpha():
            try:
                index = self.ps.index_of(tok)
            except UnknownSymbolError:
                raise UnknownSymbolError(tok, self.offset(i)) from None
            return 1, 1 << self.shift | 1 << SLOT_BITS * (self.nsyms - 1 - index)
        if tok[:1].isdigit():
            num, _, den = tok.partition("/")
            if not den:
                return self.literal(num, i), 0
            den = self.literal(den, i)
            if den == 0:
                raise self.error("rational literal with zero denominator", i)
            return Fraction(self.literal(num, i), den), 0
        if tok == "(":
            self.outer = self.outer if self.depth else i
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            if self.tokens[self.i] != ")":
                raise self.error("unexpected token", self.i, "')'")
            self.i += 1
            return e
        raise self.error(f"unexpected {tok or 'end of input'!r}", i,
                         "a number, identifier, or '('")

    # -- values -------------------------------------------------------

    def rational(self, v) -> RationalExpr:
        return self.finish({v[1]: v[0]}) if type(v) is tuple else v

    def collect(self, terms: dict, v) -> None:
        """terms += v, for a term or a polynomial RationalExpr v."""
        get = terms.get
        if type(v) is tuple:
            c, key = v
            terms[key] = get(key, 0) + c
            return
        p = v.num
        num, den = p._n, p._d
        for key, c in p._t.items():
            terms[key] = get(key, 0) + (num * c if den == 1 else Fraction(num * c, den))

    def finish(self, terms: dict) -> RationalExpr:
        """The sum of the collected terms, normalized once."""
        return RationalExpr.from_polynomial(self.ps, _from_terms(self.nsyms, terms))

    def neg(self, v):
        return (-v[0], v[1]) if type(v) is tuple else -v

    def mul(self, a, b):
        if type(a) is tuple and type(b) is tuple:
            (ca, ka), (cb, kb) = a, b
            if not (ca and cb):
                return _ZERO
            _check_degree((ka >> self.shift) + (kb >> self.shift))
            return ca * cb, ka + kb
        a, b = self.rational(a), self.rational(b)
        _check_product(a.num, b.num)
        return a * b

    def div(self, a, b):
        if type(b) is not tuple and b.is_polynomial and b.num.is_constant:
            b = b.num.constant_value(), 0
        if type(b) is not tuple or b[1]:
            return self.rational(a) / self.rational(b)
        c = b[0]
        if not c:
            raise DivisionByZeroError("division by a canonically zero expression")
        if type(a) is tuple:
            return Fraction(a[0], c), a[1]
        return a.scale(1 / Fraction(c))

    def power(self, v, k: int):
        if k < 0 or type(v) is not tuple:
            return self.rational(v).int_pow(k)
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
        raise parser.error("expression nested too deeply", parser.outer) from None
