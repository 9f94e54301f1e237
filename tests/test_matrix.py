"""Exact matrix inversion over the rational-function field."""

import operator
import random
from fractions import Fraction
from itertools import chain

import pytest

from dirackit import (
    PhaseSpace,
    RationalExpr,
    delta_matrix,
    invert_matrix,
    parse_expression,
)
from dirackit import matrix
from dirackit.errors import SingularMatrixError
from dirackit.matrix import Skew
from dirackit.sysfile import parse_system

from conftest import (full_rows, identity, is_skew_symmetric, linear_mix_constraints, matmul,
                      random_polynomial, tower_text, transpose)


@pytest.fixture
def ps():
    return PhaseSpace(3)


def E(text, ps):
    return parse_expression(text, ps)


def is_identity(mat, ps) -> bool:
    one = RationalExpr.constant(ps, 1)
    return all((e - (one if i == j else RationalExpr.zero(ps))).is_zero
               for i, row in enumerate(mat) for j, e in enumerate(row))


def test_two_by_two_skew(ps):
    c = E("2*x1^2 + 2*x2^2 + 2*x3^2", ps)
    mat = Skew(ps, ((c,), ()))
    inv = invert_matrix(mat)
    assert isinstance(inv, Skew)
    assert inv[0, 1] == E("-1", ps) / c
    assert inv[1, 0] == E("1", ps) / c
    assert inv[0, 0].is_zero and inv[1, 1].is_zero
    assert is_identity(matmul(mat, inv), ps)


def _symplectic(size, ps) -> Skew:
    """The standard symplectic J = [[0, I], [-I, 0]] of even size."""
    one, zero, half = RationalExpr.constant(ps, 1), RationalExpr.zero(ps), size // 2
    return Skew(ps, tuple(tuple(one if b == a + half else zero for b in range(a + 1, size))
                          for a in range(size)))


@pytest.mark.parametrize("size", [2, 4, 6])
def test_symplectic_inverse_is_its_negation(ps, size):
    j = _symplectic(size, ps)
    inv = invert_matrix(j)
    assert [str(e) for e in inv.entries()] == [str(-e) for e in j.entries()]
    assert is_identity(matmul(j, inv), ps)


def test_zero_matrix_singular(ps):
    zero = RationalExpr.zero(ps)
    with pytest.raises(SingularMatrixError, match=r"^no nonzero pivot in column 0$"):
        invert_matrix(Skew(ps, ((zero,), ())))


def _column_1_times_column_0(b, c, t, f, ps) -> Skew:
    """[[0, 0, b, c], [0, 0, t b, t c], [-b, -t b, 0, f], [-c, -t c, -f, 0]]:
    column 1 is t times column 0, and column 2 is not a multiple of it."""
    b, c, t, f = (E(v, ps) for v in (b, c, t, f))
    zero = RationalExpr.zero(ps)
    return Skew(ps, ((zero, b, c), (t * b, t * c), (f,), ()))


def test_rank_deficient_singular(ps):
    """Column 1 has no pivot and column 2 has one; the error names column 1,
    on the symbolic path and on the constant path alike."""
    for texts in (("x1", "1", "p1", "x2"), ("1", "2", "3", "5")):
        mat = _column_1_times_column_0(*texts, ps)
        assert _general_reduce(mat, ps)[0] == [0, 2]
        with pytest.raises(SingularMatrixError, match=r"^no nonzero pivot in column 1$"):
            invert_matrix(mat)


def test_rows_rejected(ps):
    """invert_matrix takes a Skew and nothing else: square rows, skew ones
    too, are refused before any entry is read."""
    zero, one = RationalExpr.zero(ps), RationalExpr.constant(ps, 1)
    for rows in (((zero, one), (-one, zero)), [[zero, one], [-one, zero]], ()):
        with pytest.raises(TypeError, match="^invert_matrix takes a Skew, not "):
            invert_matrix(rows)


def test_non_square_rejected(ps):
    zero = RationalExpr.zero(ps)
    with pytest.raises(TypeError, match="^invert_matrix takes a Skew, not list$"):
        invert_matrix([[zero, zero]])


def test_ragged_rows_rejected(ps):
    """Rows of different lengths are refused as rows, not read as a matrix."""
    zero, one = RationalExpr.zero(ps), RationalExpr.constant(ps, 1)
    for rows in ([[one, zero], [one]], [[one], [zero, one]]):
        with pytest.raises(TypeError, match="^invert_matrix takes a Skew, not list$"):
            invert_matrix(rows)


def test_random_polynomial_matrices_invert():
    """Seeded skew matrices of polynomials of degree at most 1 take the
    symbolic path, and their inverse is a two-sided one."""
    ps = PhaseSpace(2)
    rng = random.Random(13)
    done = 0
    while done < 10:
        size = rng.choice([2, 4])
        mat = Skew(ps, tuple(tuple(random_polynomial(ps, rng, max_degree=1, max_terms=2)
                                   for _ in range(a + 1, size)) for a in range(size)))
        try:
            inv = invert_matrix(mat)
        except SingularMatrixError:
            continue
        assert isinstance(inv, Skew)
        assert is_identity(matmul(mat, inv), ps)
        assert is_identity(matmul(inv, mat), ps)
        done += 1


def test_transpose_and_skew_check(ps):
    c = E("x1*p2", ps)
    zero = RationalExpr.zero(ps)
    mat = ((zero, c), (-c, zero))
    assert is_skew_symmetric(mat)
    assert transpose(mat)[0][1] == -c


def test_inversion_skips_exact_zero_products(monkeypatch):
    spec = parse_system(tower_text(2, sampler_seed=1))
    delta = delta_matrix(spec.constraints, spec.ps)
    zero_operands = []
    multiply = RationalExpr.__mul__

    def recording(self, other):
        if self.is_zero or other.is_zero:
            zero_operands.append((str(self), str(other)))
        return multiply(self, other)

    monkeypatch.setattr(RationalExpr, "__mul__", recording)
    inv = invert_matrix(delta)
    monkeypatch.undo()
    assert zero_operands == []
    assert is_identity(matmul(delta, inv), spec.ps)


def _general_reduce(delta: Skew, ps) -> tuple[list[int], list[list]]:
    """[rows | I] of delta's full rows after `row_reduce` over
    RationalExprs, fewest numerator terms first: the elimination of a
    general matrix."""
    size = len(delta)
    rows = [list(row + unit) for row, unit in zip(full_rows(delta), identity(size, ps))]
    pivots = matrix.row_reduce(rows, size, RationalExpr.constant(ps, 1),
                               operator.attrgetter("is_zero"), lambda e: len(e.num))
    return pivots, rows


def _general_inverse(delta: Skew, ps) -> list[list]:
    """delta^-1 by the general elimination of [rows | I], as rows."""
    size = len(delta)
    pivots, rows = _general_reduce(delta, ps)
    assert pivots == list(range(size))
    return [row[size:] for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_constant_matrix_inverts_on_fractions_like_the_general_path(monkeypatch, seed):
    """A constant Delta (a linear mix of 1 to 4 pairs, and of 5 + seed
    pairs, up to the benchmark's largest mix) is inverted on ints: it
    makes no RationalExpr product, and its inverse has the very entries
    that the elimination over RationalExprs gives."""
    rng = random.Random(seed)
    ps = PhaseSpace(10)
    cases = []
    for m in (rng.randint(1, 4), 5 + seed):
        mat = delta_matrix(linear_mix_constraints(ps, m, rng), ps)
        cases.append((mat, _general_inverse(mat, ps)))
    products = []
    original = RationalExpr.__mul__
    monkeypatch.setattr(RationalExpr, "__mul__",
                        lambda a, b: products.append(1) or original(a, b))
    for mat, general in cases:
        inv = invert_matrix(mat)
        assert not products
        for inv_row, general_row in zip(full_rows(inv), general, strict=True):
            for e, g in zip(inv_row, general_row, strict=True):
                assert (e.num, e.den) == (g.num, g.den)
                assert str(e) == str(g)


# -- the inverse of a constant matrix -------------------------------------

def _fraction_inverse(values):
    """Gauss-Jordan on Fractions with the first-nonzero pivot rule: the
    inverse, or the SingularMatrixError message it leads to."""
    size = len(values)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(values)]
    pivots = matrix.row_reduce(rows, size, Fraction(1), operator.not_, lambda v: 1)
    missing = sorted(set(range(size)).difference(pivots))
    if missing:
        return f"no nonzero pivot in column {missing[0]}"
    return [row[size:] for row in rows]


def _constant_matrix(rng, size, fractions):
    """The rows of a seeded skew matrix of Fractions: the triangle of a
    drawn square matrix, mirrored."""
    def value():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 6)) if fractions else Fraction(v)
    values = [[value() for _ in range(size)] for _ in range(size)]
    return [[values[i][j] if i < j else -values[j][i] if i > j else Fraction(0)
             for j in range(size)] for i in range(size)]


def _skew(values, ps) -> Skew:
    """The Skew of constants whose triangle is that of the rows values."""
    return Skew(ps, tuple(tuple(RationalExpr.constant(ps, v) for v in row[a + 1:])
                          for a, row in enumerate(values)))


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("size", range(1, 25))
def test_constant_inverse_matches_fraction_elimination_and_sympy(size, fractions):
    """Nonsingular seeded skew matrices of even size, with int and with
    Fraction entries.  One of odd size is singular: sympy's determinant is
    0 and invert_matrix names the column Fraction elimination names."""
    import sympy

    ps = PhaseSpace(1)
    rng = random.Random(100 * size + fractions)
    if size % 2:
        values = _constant_matrix(rng, size, fractions)
        message = _fraction_inverse(values)
        assert isinstance(message, str) and sympy.Matrix(values).det() == 0
        with pytest.raises(SingularMatrixError, match=f"^{message}$"):
            invert_matrix(_skew(values, ps))
        return
    while True:
        values = _constant_matrix(rng, size, fractions)
        expected = _fraction_inverse(values)
        if not isinstance(expected, str):
            break
    inverse = full_rows(invert_matrix(_skew(values, ps)))
    oracle = sympy.Matrix(values).inv()
    for i in range(size):
        for j in range(size):
            entry = inverse[i][j]
            assert entry.den.constant_value() == 1
            assert entry.num.constant_value() == expected[i][j]
            assert entry.num.constant_value() == Fraction(str(oracle[i, j]))


def _with_dependent_column(values, col, weights):
    """E^T M E for E the identity with column col replaced by the weights
    of the columns before it: skew when M is, and its column col is that
    combination of the columns before it."""
    def combine(vectors):
        return sum((w * v for w, v in zip(weights, vectors)), Fraction(0))
    rows = [[combine(row) if j == col else v for j, v in enumerate(row)] for row in values]
    rows[col] = [combine(column) for column in zip(*rows)]
    return rows


@pytest.mark.parametrize("size", range(2, 25))
def test_constant_singular_matrix_names_the_fraction_path_column(size):
    """A seeded skew matrix whose column col, not the last one, is a
    combination of the ones before it has no pivot first there; odd skew
    matrices are singular as they are.  Both raise the message of
    Gauss-Jordan on Fractions over [M | I]."""
    ps = PhaseSpace(1)
    rng = random.Random(size)
    cases = []
    if size % 2:
        cases.append((_constant_matrix(rng, size, True), None))
    for fractions in (False, True):
        values = _constant_matrix(rng, size, fractions)
        col = rng.randrange(size - 1)
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(col)]
        cases.append((_with_dependent_column(values, col, weights), col))
    for values, col in cases:
        assert all(values[i][j] == -values[j][i] for i in range(size) for j in range(size))
        message = _fraction_inverse(values)
        assert col is None or message == f"no nonzero pivot in column {col}"
        with pytest.raises(SingularMatrixError, match=f"^{message}$"):
            invert_matrix(_skew(values, ps))


# -- the width of a packed slot -------------------------------------------

def _skew_conference(q):
    """Paley's skew conference matrix of order q + 1 for a prime q = 3 mod
    4: C = -C^T, C C^T = q I, so |det| = q^((q + 1) / 2)."""
    squares = {i * i % q for i in range(1, q)}
    chi = [0] + [1 if i in squares else -1 for i in range(1, q)]
    return [[0] + [1] * q] + [[-1] + [chi[(j - i) % q] for j in range(q)] for i in range(q)]


def _hadamard_bound_squared(values):
    """prod_i |row_i|^2, which |det|^2 never exceeds."""
    bound = Fraction(1)
    for row in values:
        bound *= sum(v * v for v in row)
    return bound


def _skew_of_triangle(upper):
    """The full rows of the skew matrix whose rows above the diagonal are upper."""
    size = len(upper)
    return [[upper[i][j - i - 1] if i < j else -upper[j][i - j - 1] if i > j else 0
             for j in range(size)] for i in range(size)]


SLOT_CASES = {
    "conference_4": _skew_conference(3),
    "conference_8": _skew_conference(7),
    "huge_entries": _skew_of_triangle([[2 ** 200 + 7, -(2 ** 199) + 3, 5],
                                       [-(2 ** 200) + 1, 2 ** 198 + 11],
                                       [2 ** 200 - 5],
                                       []]),
    "mixed_scales": _skew_of_triangle([[10 ** 9, 0, 1],
                                       [Fraction(3, 7), 0],
                                       [10 ** 9],
                                       []]),
}


@pytest.mark.parametrize("name", sorted(SLOT_CASES))
def test_slot_width_holds_matrices_at_hadamards_bound(name):
    """Skew matrices whose determinant meets Hadamard's bound, so that
    they fill the widest slot of the skew kernel; huge entries and unlike
    scales come out exact."""
    import sympy

    values = [[Fraction(v) for v in row] for row in SLOT_CASES[name]]
    size = len(values)
    det = sympy.Matrix(values).det()
    if name.startswith("conference"):
        assert det ** 2 == _hadamard_bound_squared(values)
    expected = _fraction_inverse(values)
    ps = PhaseSpace(1)
    inverse = full_rows(invert_matrix(_skew(values, ps)))
    oracle = sympy.Matrix(values).inv()
    for i in range(size):
        for j in range(size):
            value = inverse[i][j].num.constant_value()
            assert inverse[i][j].den.constant_value() == 1
            assert value == expected[i][j] == Fraction(str(oracle[i, j]))


def test_first_column_zero_is_singular_at_column_0():
    import sympy

    values = [[Fraction(v) for v in row] for row in _skew_of_triangle(
        [[0, 0, 0], [2, Fraction(-1, 3)], [Fraction(7, 2)], []])]
    assert sympy.Matrix(values).det() == 0
    message = _fraction_inverse(values)
    assert message == "no nonzero pivot in column 0"
    ps = PhaseSpace(1)
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        invert_matrix(_skew(values, ps))


# -- the inverse of a Skew, one triangle, against sympy -------------------

def _sympy_of(e, ps):
    import sympy
    return sympy.sympify(str(e).replace("^", "**"),
                         locals={name: sympy.Symbol(name) for name in ps.symbols})


def _check_against_sympy(delta: Skew, ps):
    """invert_matrix(delta) is a Skew whose every entry above the diagonal
    equals sympy's inverse there, and the general elimination of delta's
    rows entry by entry, and delta times it, read through the accessor,
    is exactly the identity."""
    import sympy

    size = len(delta)
    inverse = invert_matrix(delta)
    assert isinstance(inverse, Skew) and len(inverse) == size
    for e, full in zip(chain.from_iterable(full_rows(inverse)),
                       chain.from_iterable(_general_inverse(delta, ps)), strict=True):
        assert (e.num, e.den) == (full.num, full.den) and str(e) == str(full)
    oracle = sympy.Matrix(size, size, lambda a, b: _sympy_of(delta[a, b], ps)).inv()
    for a in range(size):
        for b in range(a + 1, size):
            assert sympy.cancel(_sympy_of(inverse[a, b], ps) - oracle[a, b]) == 0
    assert is_identity(matmul(delta, inverse), ps)


@pytest.mark.parametrize("size", range(2, 25, 2))
def test_constant_skew_inverse_matches_sympy(size):
    """Seeded nonsingular integer skew matrices, 2 x 2 to 24 x 24."""
    ps = PhaseSpace(1)
    rng = random.Random(300 + size)
    while True:
        values = _constant_matrix(rng, size, fractions=False)
        if not isinstance(_fraction_inverse(values), str):
            break
    _check_against_sympy(_skew(values, ps), ps)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23])
@pytest.mark.parametrize("scale", [1, 3 ** 40])
def test_skew_slot_width_holds_pfaffians_at_hadamards_bound(q, scale):
    """Paley's skew conference matrices, 4 x 4 to 24 x 24, meet
    Hadamard's bound, so their Pfaffian meets the skew kernel's bound:
    the widest slot it sizes."""
    import sympy

    values = [[Fraction(v * scale) for v in row] for row in _skew_conference(q)]
    assert sympy.Matrix(values).det() ** 2 == _hadamard_bound_squared(values)
    ints = [[int(v) for v in row] for row in values]
    assert matrix._invert_skew_integers(ints) is not None
    ps = PhaseSpace(1)
    _check_against_sympy(_skew(values, ps), ps)


@pytest.mark.parametrize("size", [4, 6, 10])
def test_skew_with_a_zero_leading_pfaffian_is_inverted_after_a_swap(size):
    """A skew matrix whose leading 2 x 2 Pfaffian is 0 (Delta of x1, x2,
    p1, p2, ... in that order) has no pivot block at (0, 1): the skew
    kernel swaps index 1 with a later one, and puts the rows of the
    inverse back."""
    ps = PhaseSpace(1)
    rng = random.Random(500 + size)
    while True:
        values = _constant_matrix(rng, size, fractions=False)
        values[0][1] = values[1][0] = Fraction(0)
        if not isinstance(_fraction_inverse(values), str):
            break
    d, scaled = matrix._invert_skew_integers([[int(v) for v in row] for row in values])
    assert [[Fraction(v, d) for v in row] for row in scaled] == _fraction_inverse(values)
    _check_against_sympy(_skew(values, ps), ps)


def test_skew_kernel_declines_exactly_the_singular_matrices():
    """None for every singular skew matrix drawn, and an inverse for every
    nonsingular one, over seeded 2 x 2 to 10 x 10 matrices of entries in
    [-1, 1], where zero Pfaffian blocks and singular matrices are common;
    invert_matrix names a singular one's column as Gauss-Jordan on
    Fractions over [M | I] does."""
    ps = PhaseSpace(1)
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for _ in range(300):
        size = rng.choice([2, 4, 6, 8, 10])
        values = [[0] * size for _ in range(size)]
        for a in range(size):
            for b in range(a + 1, size):
                values[a][b] = rng.randint(-1, 1)
                values[b][a] = -values[a][b]
        expected = _fraction_inverse([[Fraction(v) for v in row] for row in values])
        found = matrix._invert_skew_integers(values)
        singular = isinstance(expected, str)
        assert (found is None) == singular
        if singular:
            with pytest.raises(SingularMatrixError, match=f"^{expected}$"):
                invert_matrix(_skew(values, ps))
        else:
            d, scaled = found
            assert [[Fraction(v, d) for v in row] for row in scaled] == expected
        seen[singular] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("size", [1, 3, 5])
def test_odd_skew_is_singular_with_the_fraction_path_message(size):
    ps = PhaseSpace(1)
    values = _constant_matrix(random.Random(600 + size), size, fractions=True)
    message = _fraction_inverse(values)
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        invert_matrix(_skew(values, ps))


@pytest.mark.parametrize("name", ["tower_k1.system", "tower_k2.system",
                                  "nonpolynomial_closure.system"])
def test_symbolic_skew_inverse_of_a_golden_family_matches_sympy(name):
    """The symbolic Deltas of the golden families: 2 x 2 (one sphere) and
    4 x 4 (two spheres)."""
    from test_golden import family_files

    spec = parse_system(family_files()[name])
    delta = delta_matrix(spec.constraints, spec.ps)
    assert len(delta) in (2, 4)
    _check_against_sympy(delta, spec.ps)


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_symbolic_skew_inverse_matches_sympy(size, seed):
    """Seeded skew matrices of random polynomials, 2 x 2 and 4 x 4."""
    ps = PhaseSpace(2)
    rng = random.Random(400 + 10 * size + seed)
    while True:
        delta = Skew(ps, tuple(
            tuple(random_polynomial(ps, rng, max_degree=1, max_terms=2)
                  for _ in range(a + 1, size)) for a in range(size)))
        try:
            invert_matrix(delta)
        except SingularMatrixError:
            continue
        break
    _check_against_sympy(delta, ps)


def test_skew_reads_each_entry_through_one_accessor(ps):
    """m[a, b] is the stored entry above the diagonal, its negation below
    and zero on it; a Skew has no rows to iterate or index."""
    c, d, e = E("x1*p2", ps), E("2", ps), E("1/(1 + x3^2)", ps)
    m = Skew(ps, ((c, d), (e,), ()))
    assert len(m) == 3 and list(m.entries()) == [c, d, e]
    assert m[0, 1] is c and m[0, 2] is d and m[1, 2] is e
    assert str(m[1, 0]) == str(-c) and str(m[2, 0]) == "-2" and str(m[2, 1]) == str(-e)
    assert all(m[a, a].is_zero for a in range(3))
    for pair in ((0, 3), (3, 0), (-1, 0)):
        with pytest.raises(IndexError):
            m[pair]
    with pytest.raises(TypeError):
        m[0]
    with pytest.raises(TypeError):
        iter(m)
