"""Polynomial layer: canonical form, graded-lex order, division."""

import math
import random
from fractions import Fraction

import pytest

from dirackit import PhaseSpace, parse_expression, poly
from dirackit.errors import DegreeOverflowError, ExpansionBudgetError
from dirackit.poly import MAX_DEGREE, MAX_POWER_BITS, MAX_POWER_TERMS, Polynomial, reduce_by

from conftest import grlex_key, leading_monomial


def P(text, ps):
    return parse_expression(text, ps).as_polynomial()


@pytest.fixture
def ps():
    return PhaseSpace(3, parameters=("r",))


def test_zero_polynomial_is_empty_map(ps):
    p = P("x1 - x1", ps)
    assert p.terms == {}
    assert p.is_zero


def test_stored_form_is_canonical(ps):
    a = P("x1^2 + 2*x2", ps)
    b = P("2*x2 + x1^2", ps)
    assert a.terms == b.terms
    assert a == b
    assert hash(a) == hash(b)


def test_no_zero_coefficients_survive(ps):
    p = P("x1*p1 + x2", ps) - P("x1*p1", ps)
    assert all(c != 0 for c in p.terms.values())
    assert p == P("x2", ps)


def test_grlex_degree_dominates(ps):
    # x3^2 has degree 2, x1 degree 1: degree wins over lex position
    assert grlex_key((0, 0, 2, 0, 0, 0, 0)) > grlex_key((1, 0, 0, 0, 0, 0, 0))


def test_grlex_leading_monomial_prefers_x1(ps):
    chi = P("x1^2 + x2^2 + x3^2 - r^2", ps)
    lead = leading_monomial(chi)
    assert lead == (2, 0, 0, 0, 0, 0, 0)


def test_content(ps):
    p = P("4*x1 + 6*x2", ps)
    assert p.content() == 2
    q = P("x1/2 + x2/3", ps)
    assert q.content() == Fraction(1, 6)


def test_pow(ps):
    assert P("x1 + 1", ps) ** 2 == P("x1^2 + 2*x1 + 1", ps)
    assert P("x1", ps) ** 0 == P("1", ps)


def test_derivative(ps):
    p = P("x1^3*p2 + r^2", ps)
    assert p.derivative(0) == P("3*x1^2*p2", ps)
    # parameter slot: r is index 6
    assert p.derivative(6) == P("2*r", ps)


def test_evaluate(ps):
    p = P("x1^2 + 2*p1", ps)
    vals = [3.0, 0, 0, 0.5, 0, 0, 0]
    assert p.evaluate(vals) == pytest.approx(10.0)


class TestDivision:
    """Multivariate division against hand-computed remainders."""

    def test_full_constraint_reduces_to_parameter(self, ps):
        chi = P("x1^2 + x2^2 + x3^2 - r^2", ps)
        target = P("x1^2 + x2^2 + x3^2", ps)
        assert reduce_by(target, [chi]) == P("r^2", ps)

    def test_partial_monomial(self, ps):
        # Hand division: x1^2 = 1*chi + (r^2 - x2^2 - x3^2)
        chi = P("x1^2 + x2^2 + x3^2 - r^2", ps)
        assert reduce_by(P("x1^2", ps), [chi]) == P("r^2 - x2^2 - x3^2", ps)

    def test_no_divisible_leading_monomial(self, ps):
        chi = P("x1^2 + x2^2 + x3^2 - r^2", ps)
        target = P("p1*x2", ps)
        assert reduce_by(target, [chi]) == target

    def test_list_order_selects_divisor(self, ps):
        # Both divisors have leading monomial dividing x1^2; the first wins.
        d1 = P("x1^2 - x2", ps)
        d2 = P("x1 - x3", ps)
        assert reduce_by(P("x1^2", ps), [d1, d2]) == P("x2", ps)
        assert reduce_by(P("x1^2", ps), [d2, d1]) == P("x3^2", ps)

    def test_weak_equality_at_on_shell_points(self, ps):
        # remainder - original vanishes wherever the divisor vanishes
        chi = P("x1^2 + x2^2 + x3^2 - r^2", ps)
        target = P("x1^2*p1 + x2*r", ps)
        rem = reduce_by(target, [chi])
        # point on the sphere r=1
        vals = [0.6, 0.8, 0.0, 0.3, -0.2, 0.9, 1.0]
        assert abs(rem.evaluate(vals) - target.evaluate(vals)) < 1e-12


class TestDegreeLimit:
    def test_largest_exponent_round_trips(self):
        top = (0, MAX_DEGREE, 0)
        p = Polynomial(3, {top: Fraction(-3, 2)})
        assert dict(p.terms) == {top: Fraction(-3, 2)}
        assert leading_monomial(p) == top
        assert p.total_degree() == MAX_DEGREE
        assert Polynomial.variable(3, 1) ** MAX_DEGREE == p.scale(Fraction(-2, 3))

    @pytest.mark.parametrize("mono", [(0, MAX_DEGREE + 1, 0), (1, MAX_DEGREE, 0),
                                      (0, MAX_DEGREE, 1)])
    def test_one_past_the_limit_raises(self, mono):
        with pytest.raises(DegreeOverflowError):
            Polynomial(3, {mono: 1})

    def test_product_and_power_past_the_limit_raise(self):
        x2 = Polynomial.variable(3, 1)
        top = x2 ** MAX_DEGREE
        with pytest.raises(DegreeOverflowError):
            top * x2
        with pytest.raises(DegreeOverflowError):
            Polynomial.variable(3, 2) * top
        with pytest.raises(DegreeOverflowError):
            x2 ** (MAX_DEGREE + 1)
        with pytest.raises(DegreeOverflowError):
            (x2 * x2 + Polynomial.constant(3, 1)) ** (MAX_DEGREE // 2 + 1)

    def test_parse_at_the_limit(self, ps):
        e = parse_expression(f"x2^{MAX_DEGREE}*2", ps)
        assert str(e) == f"2*x2^{MAX_DEGREE}"
        with pytest.raises(DegreeOverflowError):
            parse_expression(f"x2^{MAX_DEGREE}*x3", ps)


class TestPowerBudget:
    def test_terms_at_the_cap(self):
        """(t terms)^2 can have C(t + 1, 2) terms: 9,870 for t = 140,
        10,011 for t = 141."""
        assert MAX_POWER_TERMS == 10_000
        base = Polynomial(141, {tuple(int(i == j) for i in range(141)): 1 for j in range(141)})
        head = Polynomial(141, {tuple(int(i == j) for i in range(141)): 1 for j in range(140)})
        assert len(head ** 2) == 9870
        with pytest.raises(ExpansionBudgetError, match="more than 10000 terms"):
            base ** 2

    @pytest.mark.parametrize("c, k", [(2, MAX_POWER_BITS), (3, MAX_POWER_BITS // 2),
                                      (Fraction(1, 3), MAX_POWER_BITS // 2)])
    def test_coefficient_bits_at_the_cap(self, c, k):
        """k * ceil(log2 c) may reach MAX_POWER_BITS, not pass it."""
        assert Polynomial.constant(1, c) ** k == Polynomial.constant(1, c ** k)
        with pytest.raises(ExpansionBudgetError, match="bits"):
            Polynomial.constant(1, c) ** (k + 1)

    @pytest.mark.parametrize("text", ["10^400", "x1^200", f"x1^{MAX_DEGREE}",
                                      "(x1 + 1)^100", "(-1)^100001"])
    def test_powers_within_the_budget_parse(self, ps, text):
        assert not parse_expression(text, ps).is_zero

    @pytest.mark.parametrize("text", ["(x1 + x2)^100000", "2^4294967295",
                                      "(x1 + x2)^-100000", "(2*x1)^-4294967295"])
    def test_power_past_the_budget_is_refused_before_expanding(self, ps, monkeypatch, text):
        """With `*` made to raise, the refusal has to come before any
        multiplication; negative powers are refused through int_pow."""
        def refuse(self, other):
            raise AssertionError("a power was expanded")

        monkeypatch.setattr(Polynomial, "__mul__", refuse)
        with pytest.raises(ExpansionBudgetError):
            parse_expression(text, ps)



def _sum(prefix, count, constant=""):
    return "(" + " + ".join(f"{prefix}{i}" for i in range(1, count + 1)) + constant + ")"


class TestProductBudget:
    """A `*` of parsed input whose factors both have at least 2 terms is
    bounded like a power: t1 * t2 terms and the sum of the factors'
    coefficient bit lengths."""

    X4 = _sum("x", 10, " + 1") + "^4"  # 1,001 terms each, inside the power budget
    P4 = _sum("p", 10, " + 1") + "^4"

    @pytest.fixture
    def ps10(self):
        return PhaseSpace(10)

    @pytest.fixture
    def bounded_mul(self, monkeypatch):
        """Polynomial.__mul__ that fails on any product past the term budget."""
        mul = Polynomial.__mul__

        def checked(self, other):
            if len(self) * len(other) > MAX_POWER_TERMS:
                raise AssertionError("a product past the budget was expanded")
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", checked)

    @pytest.mark.parametrize("text, sizes", [
        (f"{X4} * {P4}", (1001, 1001)),
        (f"{X4} / (x1 + 1) * {P4}", (1001, 1001)),  # the RationalExpr numerators
        (f"{_sum('x', 10, ' + 1')}^2 * {_sum('p', 10, ' + 1')}^2 * (x1 + p1 + 1)^2",
         (4356, 6)),  # each pair of neighbours passes; the chain does not
    ])
    def test_product_past_the_term_budget_is_refused(self, ps10, bounded_mul, text, sizes):
        message = f"a product of a {sizes[0]}-term and a {sizes[1]}-term polynomial"
        with pytest.raises(ExpansionBudgetError, match=message):
            parse_expression(text, ps10)

    def test_terms_at_the_cap(self):
        """100 * 100 terms may be reached, 100 * 101 not."""
        ps = PhaseSpace(100)
        assert len(parse_expression(f"{_sum('x', 100)} * {_sum('p', 100)}", ps).num) == 10_000
        with pytest.raises(ExpansionBudgetError, match="more than 10000 terms"):
            parse_expression(f"{_sum('x', 100)} * {_sum('p', 100, ' + 1')}", ps)

    def test_coefficient_bits(self, ps):
        half = MAX_POWER_BITS // 2
        assert not parse_expression(f"(2^{half}*x1 + 1) * (2^{half}*p1 + 1)", ps).is_zero
        with pytest.raises(ExpansionBudgetError, match="bits"):
            parse_expression(f"(2^{half + 1}*x1 + 1) * (2^{half}*p1 + 1)", ps)

    @pytest.mark.parametrize("text", [f"2^{MAX_POWER_BITS} * (2^{MAX_POWER_BITS}*x1 + 1)",
                                      f"x1 * {_sum('x', 3)}^8 * p1"])
    def test_a_single_term_factor_is_not_bounded(self, ps, text):
        assert not parse_expression(text, ps).is_zero


# -- oracle: a plain {exponent tuple: Fraction} kernel ----------------------

def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def ref_scale(a, f):
    return {m: c * f for m, c in a.items()} if f else {}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = ref_add(out, {tuple(x + y for x, y in zip(m1, m2)): c1 * c2})
    return out


def ref_pow(a, k, nsyms):
    out = {(0,) * nsyms: Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_derivative(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def ref_content(a):
    num, den = 0, 1
    for c in a.values():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den) if a else Fraction(1)


def ref_lead(a):
    return max(a, key=lambda m: (sum(m), m))


def ref_reduce(a, divisors):
    divs = [d for d in divisors if d]
    rem, work = {}, dict(a)
    while work:
        lm = ref_lead(work)
        lc = work[lm]
        for d in divs:
            dlm = ref_lead(d)
            if all(x <= y for x, y in zip(dlm, lm)):
                q = {tuple(y - x for x, y in zip(dlm, lm)): lc / d[dlm]}
                work = ref_add(work, ref_scale(ref_mul(q, d), -1))
                break
        else:
            rem = ref_add(rem, {lm: lc})
            work = ref_add(work, {lm: -lc})
    return rem


def ref_evaluate(a, values):
    return sum(float(c) * math.prod(v ** e for v, e in zip(values, m))
               for m, c in a.items())


def random_terms(rng, nsyms, max_terms=6, max_degree=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * nsyms
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(nsyms)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return {m: c for m, c in terms.items() if c}


def random_monomial(rng, nsyms, degree):
    mono = [0] * nsyms
    for _ in range(degree):
        mono[rng.randrange(nsyms)] += 1
    return tuple(mono)


def divisor_lists(rng, nsyms, tb):
    """Divisor lists to reduce a * b by: two random divisors in both
    orders; one with content 2/5 and primitive part 3*u - 2*v, a
    non-monic lead; a constant; and b alone, one polynomial and so a
    Groebner basis of its ideal, by which a * b reduces to 0."""
    pair = [Polynomial(nsyms, random_terms(rng, nsyms, 3, 2)) for _ in range(2)]
    u, v = random_monomial(rng, nsyms, 2), random_monomial(rng, nsyms, rng.randint(0, 1))
    non_monic = Polynomial(nsyms, {u: Fraction(6, 5), v: Fraction(-4, 5)})
    assert non_monic.content() == Fraction(2, 5) and non_monic.sorted_terms()[0][1] == Fraction(6, 5)
    return [pair, pair[::-1], [non_monic], [non_monic, *pair],
            [Polynomial.constant(nsyms, Fraction(-3, 7))], [Polynomial(nsyms, tb)]]


def oracle_case(i):
    """(rng, nsyms, terms a, terms b): case i has 1 + i % 13 symbols."""
    rng = random.Random(1304 + i)
    nsyms = 1 + i % 13
    return rng, nsyms, random_terms(rng, nsyms), random_terms(rng, nsyms)


@pytest.mark.parametrize("case", range(40))
def test_kernel_matches_reference(case):
    rng, nsyms, ta, tb = oracle_case(case)
    a, b = Polynomial(nsyms, ta), Polynomial(nsyms, tb)
    assert dict(a.terms) == ta and len(a.terms) == len(ta)
    assert Polynomial(nsyms, a.terms) == a
    assert dict((a + b).terms) == ref_add(ta, tb)
    assert dict((a - b).terms) == ref_add(ta, ref_scale(tb, -1))
    assert dict((-a).terms) == ref_scale(ta, -1)
    assert dict((a * b).terms) == ref_mul(ta, tb)
    assert dict((a ** 3).terms) == ref_pow(ta, 3, nsyms)
    f = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    assert dict(a.scale(f).terms) == ref_scale(ta, f)
    i = rng.randrange(nsyms)
    assert dict(a.derivative(i).terms) == ref_derivative(ta, i)
    assert a.content() == ref_content(ta)
    assert a.sorted_terms() == sorted(ta.items(), key=lambda t: grlex_key(t[0]),
                                      reverse=True)
    assert a.is_constant == all(sum(m) == 0 for m in ta)
    assert a.total_degree() == max((sum(m) for m in ta), default=0)
    if ta:
        lead = ref_lead(ta)
        assert leading_monomial(a) == lead
        assert a.sorted_terms()[0][1] == ta[lead]
    divisors = [Polynomial(nsyms, random_terms(rng, nsyms, 3, 2)) for _ in range(2)]
    assert dict(reduce_by(a * b, divisors).terms) == ref_reduce(
        ref_mul(ta, tb), [dict(d.terms) for d in divisors])
    values = [rng.uniform(-1.5, 1.5) for _ in range(nsyms)]
    assert a.evaluate(values) == pytest.approx(ref_evaluate(ta, values), abs=1e-9)
    for divisors in divisor_lists(rng, nsyms, tb):
        assert dict(reduce_by(a * b, divisors).terms) == ref_reduce(
            ref_mul(ta, tb), [dict(d.terms) for d in divisors])
    assert reduce_by(a * b, [b]).is_zero


@pytest.mark.parametrize("case", range(0, 40, 3))
def test_kernel_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    rng, nsyms, ta, tb = oracle_case(case)
    gens = sympy.symbols(f"s0:{nsyms}")

    def to_sympy(terms):
        return sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in terms.items()},
            *gens, domain="QQ")

    def from_sympy(poly):
        return {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()}

    a, b = Polynomial(nsyms, ta), Polynomial(nsyms, tb)
    sa, sb = to_sympy(ta), to_sympy(tb)
    assert dict((a * b).terms) == from_sympy(sa * sb)
    assert dict((a + b).terms) == from_sympy(sa + sb)
    assert dict((a ** 2).terms) == from_sympy(sa ** 2)
    assert dict(a.derivative(0).terms) == from_sympy(sa.diff(gens[0]))
    if ta:
        assert leading_monomial(a) == sa.monoms(order="grlex")[0]
    divisor = Polynomial(nsyms, random_terms(rng, nsyms, 3, 2))
    for divisors in [[divisor], *divisor_lists(rng, nsyms, tb)]:
        divisors = [d for d in divisors if not d.is_zero]
        if not divisors:
            continue
        _, rem = sympy.reduced((sa * sb).as_expr(),
                               [to_sympy(dict(d.terms)).as_expr() for d in divisors],
                               *gens, order="grlex")
        assert dict(reduce_by(a * b, divisors).terms) == from_sympy(
            sympy.Poly(rem, *gens, domain="QQ"))


def test_equal_polynomials_built_in_different_orders():
    rng = random.Random(7)
    for nsyms in (1, 4, 13):
        terms = random_terms(rng, nsyms, max_terms=8)
        items = list(terms.items())
        rng.shuffle(items)
        a, b = Polynomial(nsyms, terms), Polynomial(nsyms, dict(items))
        c = sum((Polynomial(nsyms, {m: v}) for m, v in items), Polynomial.zero(nsyms))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)


def test_terms_view_is_read_only(ps):
    p = P("x1^2 + 2*x2", ps)
    with pytest.raises(TypeError):
        p.terms[(1, 0, 0, 0, 0, 0, 0)] = Fraction(1)
    assert p.terms.get((9, 9), Fraction(0)) == 0
    assert (0,) * 7 not in p.terms


def test_reduce_by_builds_no_polynomial_in_its_loop(monkeypatch):
    """The division runs on one dict of packed terms: no `Polynomial`
    product or sum, and one `Polynomial` built, the remainder."""
    inputs = []
    for rng, nsyms, ta, tb in map(oracle_case, range(40)):
        product = Polynomial(nsyms, ta) * Polynomial(nsyms, tb)
        inputs += [(product, divisors) for divisors in divisor_lists(rng, nsyms, tb)]
    calls = []
    for name in ("__mul__", "__add__"):
        original = getattr(Polynomial, name)
        monkeypatch.setattr(Polynomial, name, lambda self, other, _name=name, _original=original:
                            calls.append(_name) or _original(self, other))
    make = poly._make
    monkeypatch.setattr(poly, "_make", lambda *args: calls.append("_make") or make(*args))
    for product, divisors in inputs:
        calls.clear()
        reduce_by(product, divisors)
        assert calls == ["_make"]


@pytest.mark.parametrize("case", range(40))
def test_exact_quotient(case):
    """A product divides back exactly; a perturbed one divides exactly iff
    division by the one divisor (a Groebner basis of its ideal) leaves
    no remainder."""
    rng, nsyms, ta, tb = oracle_case(case)
    a, b = Polynomial(nsyms, ta), Polynomial(nsyms, tb)
    if b.is_zero:
        b = Polynomial.constant(nsyms, Fraction(-3, 2))
    assert (a * b).exact_quotient(b) == a
    c = (a * b) + Polynomial(nsyms, random_terms(rng, nsyms, 2, 3))
    q = c.exact_quotient(b)
    assert (q is None) == (not reduce_by(c, [b]).is_zero)
    if q is not None:
        assert q * b == c
