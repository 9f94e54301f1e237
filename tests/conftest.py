"""Shared fixtures and independent numeric oracles.

The finite-difference brackets here deliberately avoid the symbolic
differentiation path: partials are central differences of plain numeric
evaluation, so they can serve as an independent cross-check.
"""

import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from dirackit import PhaseSpace, RationalExpr, make_context, parse_expression
from dirackit.errors import ExpressionSyntaxError, UnknownSymbolError
from dirackit.expr import add_products
from dirackit.matrix import Skew, row_reduce
from dirackit.poly import Polynomial, _unpack

FD_STEP = 1e-5

# Property tests run the same examples on every run, and a bounded number.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=400)
settings.load_profile("tier1")


@pytest.fixture
def ps2():
    return PhaseSpace(2)


@pytest.fixture
def ps3():
    return PhaseSpace(3)


@pytest.fixture
def ps3r():
    return PhaseSpace(3, parameters=("r",))


@pytest.fixture
def sphere_ctx(ps3r):
    chi1 = parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps3r)
    chi2 = parse_expression("p1*x1 + p2*x2 + p3*x3", ps3r)
    return make_context(ps3r, [chi1, chi2])


def replace_everywhere(monkeypatch, original, replacement):
    """Replace a function in every dirackit namespace that holds it;
    modules such as `cli` call their own `from .analysis import` copies."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "dirackit" or name.startswith("dirackit.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, replacement)


# -- helpers the library itself does not need ---------------------------

def grlex_key(mono):
    """Sort key for graded lex: total degree first, then lex on exponents."""
    return (sum(mono), mono)


def leading_monomial(poly: Polynomial):
    """The graded-lex leading monomial, read from the key the polynomial
    keeps for it."""
    if poly.is_zero:
        raise ValueError("the zero polynomial has no leading monomial")
    return _unpack(poly.nsyms, poly._lead)


_TOKEN = re.compile(r"""
    (?P<number>[0-9]+(?:/[0-9]+)?)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str):
    """(kind, text, offset) per token, whitespace dropped, then an "end"
    token; the first character no other group matches is an error.  Kept
    apart from the parser's own scan, so the two are checked against
    each other."""
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


class _FoldParser:
    """The parser as a recursive fold over RationalExpr arithmetic: every
    number and symbol becomes a RationalExpr, and every operator applies
    RationalExpr's own operation left to right."""

    def __init__(self, text: str, ps: PhaseSpace):
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


def fold_parse(text: str, ps: PhaseSpace) -> RationalExpr:
    """Reference for `parse_expression`: the same grammar and errors,
    evaluated by the recursive RationalExpr fold."""
    parser = _FoldParser(text, ps)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply",
                                    parser.peek()[2]) from None


class Opaque:
    """The opaque arithmetic `RationalExpr` had before atoms, kept as a
    reference: a num/den pair with den of content 1 and a positive
    leading coefficient, sums over the product of unequal denominators,
    a partial over den squared, and no cancellation."""

    __slots__ = ("ps", "num", "den", "_partials")

    def __init__(self, ps, num: Polynomial, den: Polynomial):
        if num.is_zero:
            den = Polynomial.constant(ps.nsyms, 1)
        else:
            n, d = den.signed_content()
            num, den = num.scale(Fraction(d, n)), den.scale(Fraction(d, n))
        self.ps, self.num, self.den, self._partials = ps, num, den, {}

    @classmethod
    def of(cls, e: RationalExpr) -> "Opaque":
        return cls(e.ps, e.num, e.den)

    def expr(self) -> RationalExpr:
        return RationalExpr(self.ps, self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        if self.den == other.den:
            return Opaque(self.ps, self.num + other.num, self.den)
        return Opaque(self.ps, self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return Opaque(self.ps, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return Opaque(self.ps, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return Opaque(self.ps, self.num * other.den, self.den * other.num)

    def diff_index(self, index: int) -> "Opaque":
        if index not in self._partials:
            dn, dd = self.num.derivative(index), self.den.derivative(index)
            self._partials[index] = Opaque(self.ps, dn, self.den) if dd.is_zero else \
                Opaque(self.ps, dn * self.den - self.num * dd, self.den * self.den)
        return self._partials[index]


def opaque_poisson(f: Opaque, g: Opaque) -> Opaque:
    """The Poisson bracket folded pair by pair in opaque arithmetic."""
    ps = f.ps
    acc = Opaque(ps, Polynomial.zero(ps.nsyms), Polynomial.constant(ps.nsyms, 1))
    for i in range(1, ps.n + 1):
        xi, pi = ps.coordinate_index(i), ps.momentum_index(i)
        acc = acc + f.diff_index(xi) * g.diff_index(pi) - f.diff_index(pi) * g.diff_index(xi)
    return acc


def opaque_inverse(chis) -> list:
    """Delta^-1 of Opaque constraints by Gauss-Jordan in opaque arithmetic."""
    ps, k = chis[0].ps, len(chis)
    one = Opaque(ps, Polynomial.constant(ps.nsyms, 1), Polynomial.constant(ps.nsyms, 1))
    zero = Opaque(ps, Polynomial.zero(ps.nsyms), one.den)
    rows = [[opaque_poisson(a, b) for b in chis] + [one if i == j else zero for j in range(k)]
            for i, a in enumerate(chis)]
    assert row_reduce(rows, k, one, lambda e: e.is_zero, lambda e: len(e.num)) == list(range(k))
    return [row[k:] for row in rows]


def opaque_dirac(f: Opaque, g: Opaque, chis, inverse) -> Opaque:
    """{f, g}_D as `_dirac_correct` folded it before atoms: the Poisson
    bracket, then acc + ({f, chi_a} (Delta^-1)_ab) * (-{chi_b, g}) in
    (a, b) order, a pair skipped when one of its factors is zero."""
    acc = opaque_poisson(f, g)
    f_chi = [opaque_poisson(f, chi) for chi in chis]
    chi_g = [opaque_poisson(chi, g) for chi in chis]
    for a, fa in enumerate(f_chi):
        for b, gb in enumerate(chi_g):
            if not (fa.is_zero or inverse[a][b].is_zero or gb.is_zero):
                acc = acc + fa * inverse[a][b] * -gb
    return acc


def pair_by_partials(one, u, inverse, w) -> RationalExpr:
    """Pi_D[x_i, p_i] = 1 - sum_a u_a sum_b (Delta^-1)_ab w_b by
    `add_products`, with u_a = dchi_a/dp_i and w_b = dchi_b/dx_i."""
    zero = RationalExpr.zero(one.ps)
    return add_products(one, [(-ua, add_products(zero, zip(row, w)))
                              for ua, row in zip(u, inverse) if not ua.is_zero])


def trace_by_partials(ctx) -> RationalExpr:
    """sum_i Pi_D[x_i, p_i], each pair cancelled and the sum cancelled: a
    reference for `trace_identity` read from the constraints' partials
    and Delta^-1, not from Delta."""
    ps, chis = ctx.ps, ctx.constraints
    one = RationalExpr.constant(ps, 1)
    total = RationalExpr.zero(ps)
    for i in range(1, ps.n + 1):
        u = [chi.diff_index(ps.momentum_index(i)) for chi in chis]
        w = [chi.diff_index(ps.coordinate_index(i)) for chi in chis]
        total = total + pair_by_partials(one, u, full_rows(ctx.delta_inv), w).cancel()
    return total.cancel()


def identity(size: int, ps) -> tuple:
    one, zero = RationalExpr.constant(ps, 1), RationalExpr.zero(ps)
    return tuple(tuple(one if i == j else zero for j in range(size)) for i in range(size))


def full_rows(m) -> tuple:
    """Every entry of a `Skew` by rows, read through its accessor; a
    matrix given as rows as it is."""
    if not isinstance(m, Skew):
        return m
    k = len(m)
    return tuple(tuple(m[a, b] for b in range(k)) for a in range(k))


def matmul(a, b) -> tuple:
    """The product of two matrices given as tuples of rows or as `Skew`s."""
    a, b = full_rows(a), full_rows(b)
    assert all(len(row) == len(b) for row in a)
    out = []
    for row in a:
        entries = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for k in range(1, len(b)):
                acc = acc + row[k] * b[k][j]
            entries.append(acc)
        out.append(tuple(entries))
    return tuple(out)


def transpose(m) -> tuple:
    return tuple(zip(*full_rows(m)))


def is_skew_symmetric(m) -> bool:
    m = full_rows(m)
    return all(len(row) == len(m) for row in m) and all(
        (m[i][j] + m[j][i]).is_zero for i in range(len(m)) for j in range(i, len(m)))


def random_polynomial(ps, rng: random.Random, max_degree=3, max_terms=4,
                      variables_only=False, symbols=None) -> RationalExpr:
    """Random polynomial expression with small rational coefficients.
    Its monomials draw on the named symbols, by default on every symbol
    (every variable with variables_only)."""
    nsyms = ps.nsyms
    if symbols is None:
        active = range(2 * ps.n if variables_only else nsyms)
    else:
        active = [ps.index_of(s) for s in symbols]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nsyms
        for _ in range(rng.randint(0, max_degree)):
            mono[active[rng.randrange(len(active))]] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff != 0:
            key = tuple(mono)
            terms[key] = terms.get(key, Fraction(0)) + coeff
    poly = Polynomial(nsyms, terms)
    return RationalExpr.from_polynomial(ps, poly)


def random_rational_expr(ps, rng: random.Random, max_degree=2, max_terms=3) -> RationalExpr:
    num = random_polynomial(ps, rng, max_degree, max_terms)
    den = random_polynomial(ps, rng, max_degree, max_terms)
    while den.is_zero:
        den = random_polynomial(ps, rng, max_degree, max_terms)
    return num / den


def random_point(ps, rng: random.Random, spread=1.5) -> dict:
    return {s: rng.uniform(-spread, spread) for s in ps.symbols}


def fd_partial(e: RationalExpr, point: dict, symbol: str, h=FD_STEP) -> float:
    hi = dict(point)
    lo = dict(point)
    hi[symbol] += h
    lo[symbol] -= h
    return (e.evaluate(hi) - e.evaluate(lo)) / (2 * h)


def fd_poisson(f: RationalExpr, g: RationalExpr, ps: PhaseSpace, point: dict) -> float:
    total = 0.0
    for i in range(ps.n):
        x, p = ps.coordinates[i], ps.momenta[i]
        total += fd_partial(f, point, x) * fd_partial(g, point, p)
        total -= fd_partial(f, point, p) * fd_partial(g, point, x)
    return total


def fd_dirac(f: RationalExpr, g: RationalExpr, ctx, point: dict) -> float:
    """Numeric Dirac bracket: finite-difference Poisson brackets and a
    numeric inverse of the constraint bracket matrix at the point."""
    ps = ctx.ps
    chis = ctx.constraints
    k = len(chis)
    delta = np.array([[fd_poisson(chis[a], chis[b], ps, point) for b in range(k)]
                      for a in range(k)])
    delta_inv = np.linalg.inv(delta)
    value = fd_poisson(f, g, ps, point)
    for a in range(k):
        fa = fd_poisson(f, chis[a], ps, point)
        for b in range(k):
            value -= fa * delta_inv[a, b] * fd_poisson(chis[b], g, ps, point)
    return value


def exact_int_matrix_invertible(a) -> bool:
    """Exact nonsingularity test via Fraction Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in a]
    size = len(m)
    for col in range(size):
        piv = next((r for r in range(col, size) if m[r][col] != 0), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, size):
            if m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return True


def linear_mix_constraints(ps, m: int, rng: random.Random):
    """2m constraints: a random invertible integer mix of the first m
    coordinate/momentum pairs.  Always second class."""
    base = [parse_expression(ps.coordinates[i], ps) for i in range(m)] + \
           [parse_expression(ps.momenta[i], ps) for i in range(m)]
    size = 2 * m
    while True:
        a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        if exact_int_matrix_invertible(a):
            break
    out = []
    for row in a:
        acc = RationalExpr.zero(ps)
        for coeff, e in zip(row, base):
            if coeff:
                acc = acc + e.scale(coeff)
        out.append(acc)
    return out


# -- generated families --------------------------------------------------

def tower_text(k: int, sampler_seed: int) -> str:
    """`.system` text of k decoupled spheres of radius r, with the angular
    momenta of each sphere as primaries and H = |p|^2 / 2."""
    n = 3 * k
    lines = ["[system]", f"n = {n}", "parameters = r", "bind r = 1.0", "", "[constraints]"]
    for s in range(k):
        x = [f"x{3 * s + i}" for i in (1, 2, 3)]
        p = [f"p{3 * s + i}" for i in (1, 2, 3)]
        lines.append(f"radius{s + 1} = " + " + ".join(f"{v}^2" for v in x) + " - r^2")
        lines.append(f"tangent{s + 1} = " + " + ".join(f"{a}*{b}" for a, b in zip(p, x)))
    lines += ["", "[hamiltonian]",
              "H = (" + " + ".join(f"p{i}^2" for i in range(1, n + 1)) + ")/2",
              "", "[primaries]"]
    for s in range(k):
        x = [f"x{3 * s + i}" for i in (1, 2, 3)]
        p = [f"p{3 * s + i}" for i in (1, 2, 3)]
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            lines.append(f"L{a + 1}_s{s + 1} = {x[b]}*{p[c]} - {x[c]}*{p[b]}")
    lines += ["", "[onshell]"] + [f"use radius{s + 1}" for s in range(k)]
    lines += ["", "[sampler]", f"seed = {sampler_seed}", "points = 16"]
    return "\n".join(lines) + "\n"


def mix_text(n: int, m: int, rng: random.Random) -> str:
    """`.system` text of 2m constraints that mix the first m canonical
    pairs by a random invertible integer matrix with entries in [-3, 3]."""
    base = [f"x{i}" for i in range(1, m + 1)] + [f"p{i}" for i in range(1, m + 1)]
    while True:
        rows = [[rng.randint(-3, 3) for _ in base] for _ in base]
        if exact_int_matrix_invertible(rows):
            break
    lines = ["[system]", f"n = {n}", "", "[constraints]"]
    for i, row in enumerate(rows, 1):
        terms = [f"({c})*{name}" for c, name in zip(row, base) if c]
        lines.append(f"chi{i} = " + " + ".join(terms))
    lines += ["", "[sampler]", f"seed = {rng.randrange(2**31)}"]
    return "\n".join(lines) + "\n"


# Supports of f, g, h in the sphere Jacobi triples; only the coefficients vary.
JACOBI_SUPPORTS = (("p1*p2", "1"), ("p1*p3", "p2"), ("x2*p3", "x1"))


def jacobi_triple(ps, rng: random.Random):
    """f, g, h on the sphere phase space with random nonzero rational
    coefficients on JACOBI_SUPPORTS."""
    def coefficient():
        while True:
            value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if value:
                return value
    return tuple(parse_expression(" + ".join(f"({coefficient()})*{mono}" for mono in support), ps)
                 for support in JACOBI_SUPPORTS)
