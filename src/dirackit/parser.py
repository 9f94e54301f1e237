"""Recursive-descent parser for the expression grammar.

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" integer)?
    base   := number | identifier | "(" expr ")"
    number := integer ("/" integer)?     -- a literal rational
    identifier := [A-Za-z][A-Za-z0-9_]*  -- declared variable or parameter

Implicit multiplication is rejected.  "^" binds tighter than unary
minus.  A rational literal requires the "/" to sit directly between the
two integers with no whitespace ("1/2" is the literal, "1 / 2" is a
division; both denote the same value).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExpressionSyntaxError, UnknownSymbolError
from .expr import RationalExpr
from .phase_space import PhaseSpace

_TOKEN = re.compile(r"""
    (?P<number>\d+(?:/\d+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        # split "1 / 2" from the literal: the regex already requires
        # adjacency, but "1/" followed by non-digit must stay a division
        tokens.append((m.lastgroup, m.group(), m.start()))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ps: PhaseSpace):
        self.text = text
        self.ps = ps
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

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
        return e

    def expr(self) -> RationalExpr:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                e = e + rhs if value == "+" else e - rhs
            else:
                return e

    def term(self) -> RationalExpr:
        e = self.factor()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.factor()
                e = e * rhs if value == "*" else e / rhs
            else:
                return e

    def factor(self) -> RationalExpr:
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return -self.factor()
        e = self.base()
        kind, value, pos = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            e = e.int_pow(self.integer())
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
        return sign * int(value)

    def base(self) -> RationalExpr:
        kind, value, pos = self.advance()
        if kind == "number":
            if "/" in value and int(value.split("/")[1]) == 0:
                raise ExpressionSyntaxError("rational literal with zero denominator", pos)
            return RationalExpr.constant(self.ps, Fraction(value))
        if kind == "ident":
            if value not in self.ps.symbols:
                raise UnknownSymbolError(value, pos)
            return RationalExpr.symbol(self.ps, value)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        shown = value if value else "end of input"
        raise ExpressionSyntaxError(f"unexpected {shown!r}", pos,
                                    expected="a number, identifier, or '('")


def parse_expression(text: str, ps: PhaseSpace) -> RationalExpr:
    """Parse text into a canonical RationalExpr over ps."""
    parser = _Parser(text, ps)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply",
                                    parser.peek()[2]) from None
