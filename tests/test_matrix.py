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
    zero = RationalExpr.zero(ps)
    mat = ((zero, c), (-c, zero))
    inv = invert_matrix(mat)
    assert inv[0][1] == E("-1", ps) / c
    assert inv[1][0] == E("1", ps) / c
    assert inv[0][0].is_zero and inv[1][1].is_zero
    assert is_identity(matmul(mat, inv), ps)


def test_identity_4x4(ps):
    eye = identity(4, ps)
    assert is_identity(invert_matrix(eye), ps)


def test_zero_matrix_singular(ps):
    zero = RationalExpr.zero(ps)
    mat = ((zero, zero), (zero, zero))
    with pytest.raises(SingularMatrixError):
        invert_matrix(mat)


def test_rank_deficient_singular(ps):
    a = E("x1", ps)
    mat = ((a, a), (a, a))
    with pytest.raises(SingularMatrixError):
        invert_matrix(mat)
    # Column 1 has no pivot and column 2 has one; the error names column 1,
    # on the general path and on the Fraction path alike.
    for texts in ((("x1", "x1", "1"), ("x1", "x1", "2"), ("x1", "x1", "p1")),
                  (("1", "1", "2"), ("2", "2", "3"), ("3", "3", "5"))):
        mat = [[E(t, ps) for t in row] for row in texts]
        with pytest.raises(SingularMatrixError, match=r"^no nonzero pivot in column 1$"):
            invert_matrix(mat)


def test_non_square_rejected(ps):
    zero = RationalExpr.zero(ps)
    with pytest.raises(ValueError):
        invert_matrix([[zero, zero]])


def test_ragged_rows_rejected(ps):
    """Rows of different lengths are not a square matrix."""
    zero, one = RationalExpr.zero(ps), RationalExpr.constant(ps, 1)
    for rows in ([[one, zero], [one]], [[one], [zero, one]]):
        with pytest.raises(ValueError, match="^matrix must be square$"):
            invert_matrix(rows)


def test_random_polynomial_matrices_invert():
    ps = PhaseSpace(2)
    rng = random.Random(13)
    done = 0
    while done < 10:
        size = rng.choice([2, 3])
        mat = [[random_polynomial(ps, rng, max_degree=1, max_terms=2)
                for _ in range(size)] for _ in range(size)]
        try:
            inv = invert_matrix(mat)
        except SingularMatrixError:
            continue
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
        size = len(mat)
        unit = identity(size, ps)
        rows = [list(full_rows(mat)[i] + unit[i]) for i in range(size)]
        assert matrix.row_reduce(rows, size, RationalExpr.constant(ps, 1),
                                 operator.attrgetter("is_zero"), lambda e: len(e.num)) \
            == list(range(size))
        cases.append((mat, [row[size:] for row in rows]))
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


def _constant_matrix(rng, size, fractions, skew):
    def value():
        v = rng.randint(-4, 4)
        return Fraction(v, rng.randint(1, 6)) if fractions else Fraction(v)
    values = [[value() for _ in range(size)] for _ in range(size)]
    if skew:
        values = [[values[i][j] if i < j else -values[j][i] if i > j else Fraction(0)
                   for j in range(size)] for i in range(size)]
    return values


def _as_matrix(values, ps):
    return [[RationalExpr.constant(ps, v) for v in row] for row in values]


@pytest.mark.parametrize("fractions", [False, True])
@pytest.mark.parametrize("size", range(1, 25))
def test_constant_inverse_matches_fraction_elimination_and_sympy(size, fractions):
    """Nonsingular seeded matrices, skew (even sizes; an odd skew matrix
    is singular) and not skew, with int and with Fraction entries."""
    import sympy

    ps = PhaseSpace(1)
    rng = random.Random(100 * size + fractions)
    for skew in (False, True) if size % 2 == 0 else (False,):
        while True:
            values = _constant_matrix(rng, size, fractions, skew)
            expected = _fraction_inverse(values)
            if not isinstance(expected, str):
                break
        inverse = invert_matrix(_as_matrix(values, ps))
        oracle = sympy.Matrix(values).inv()
        for i in range(size):
            for j in range(size):
                entry = inverse[i][j]
                assert entry.den.constant_value() == 1
                assert entry.num.constant_value() == expected[i][j]
                assert entry.num.constant_value() == Fraction(str(oracle[i, j]))


@pytest.mark.parametrize("size", range(2, 25))
def test_constant_singular_matrix_names_the_fraction_path_column(size):
    """A seeded column that is a combination of the ones before it, not
    the last one, is the first without a pivot; odd skew matrices are
    singular as they are.  Both raise the Fraction path's message."""
    ps = PhaseSpace(1)
    rng = random.Random(size)
    cases = []
    if size % 2:
        cases.append((_constant_matrix(rng, size, True, skew=True), None))
    for fractions in (False, True):
        values = _constant_matrix(rng, size, fractions, skew=False)
        col = rng.randrange(size - 1)
        weights = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(col)]
        for row in values:
            row[col] = sum((w * v for w, v in zip(weights, row)), Fraction(0))
        cases.append((values, col))
    for values, col in cases:
        message = _fraction_inverse(values)
        assert col is None or message == f"no nonzero pivot in column {col}"
        with pytest.raises(SingularMatrixError, match=f"^{message}$"):
            invert_matrix(_as_matrix(values, ps))


# -- the width of a packed slot -------------------------------------------

def _sylvester(order):
    """The +-1 Hadamard matrix of Sylvester's doubling; |det| = order^(order/2)."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


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


SLOT_CASES = {
    "sylvester_8": _sylvester(8),
    "sylvester_16": _sylvester(16),
    "sylvester_16_scaled": [[v * 3 ** 40 for v in row] for row in _sylvester(16)],
    "conference_4": _skew_conference(3),
    "conference_8": _skew_conference(7),
    "huge_entries": [[2 ** 200 + 7, -(2 ** 199) + 3, 5],
                     [2 ** 201 - 1, 2 ** 200, -(2 ** 200) + 1],
                     [-3, 2 ** 198 + 11, 2 ** 200 - 5]],
    "mixed_scales": [[Fraction(1, 10 ** 9), 10 ** 9, 0, 1],
                     [-(10 ** 9), Fraction(1, 10 ** 9), Fraction(3, 7), 0],
                     [0, Fraction(-3, 7), Fraction(1, 10 ** 9), 10 ** 9],
                     [-1, 0, -(10 ** 9), Fraction(1, 10 ** 9)]],
}


@pytest.mark.parametrize("name", sorted(SLOT_CASES))
def test_slot_width_holds_matrices_at_hadamards_bound(name):
    """Matrices whose determinant meets Hadamard's bound, the skew
    conference ones given as a Skew, so that they fill the widest slot of
    the skew kernel; huge entries and unlike scales come out exact."""
    import sympy

    values = [[Fraction(v) for v in row] for row in SLOT_CASES[name]]
    size = len(values)
    det = sympy.Matrix(values).det()
    if name.startswith(("sylvester", "conference")):
        assert det ** 2 == _hadamard_bound_squared(values)
    expected = _fraction_inverse(values)
    ps = PhaseSpace(1)
    mat = _as_matrix(values, ps)
    inverse = full_rows(invert_matrix(_skew(mat, ps) if name.startswith("conference") else mat))
    oracle = sympy.Matrix(values).inv()
    for i in range(size):
        for j in range(size):
            value = inverse[i][j].num.constant_value()
            assert inverse[i][j].den.constant_value() == 1
            assert value == expected[i][j] == Fraction(str(oracle[i, j]))


def test_first_column_zero_is_singular_at_column_0():
    import sympy

    values = [[Fraction(0), Fraction(1), Fraction(2)],
              [Fraction(0), Fraction(3), Fraction(-1)],
              [Fraction(0), Fraction(5), Fraction(7, 2)]]
    assert sympy.Matrix(values).det() == 0
    message = _fraction_inverse(values)
    assert message == "no nonzero pivot in column 0"
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        invert_matrix(_as_matrix(values, PhaseSpace(1)))


# -- the inverse of a Skew, one triangle, against sympy -------------------

def _skew(rows, ps) -> Skew:
    """The Skew whose triangle is that of rows, given as RationalExprs."""
    return Skew(ps, tuple(tuple(row[a + 1:]) for a, row in enumerate(rows)))


def _sympy_of(e, ps):
    import sympy
    return sympy.sympify(str(e).replace("^", "**"),
                         locals={name: sympy.Symbol(name) for name in ps.symbols})


def _check_against_sympy(delta: Skew, ps):
    """invert_matrix(delta) is a Skew whose every entry above the diagonal
    equals sympy's inverse there, and the full inverse of delta's rows
    entry by entry, and delta times it, read through the accessor, is
    exactly the identity."""
    import sympy

    size = len(delta)
    inverse = invert_matrix(delta)
    assert isinstance(inverse, Skew) and len(inverse) == size
    for e, full in zip(chain.from_iterable(full_rows(inverse)),
                       chain.from_iterable(invert_matrix(full_rows(delta))), strict=True):
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
        values = _constant_matrix(rng, size, fractions=False, skew=True)
        if not isinstance(_fraction_inverse(values), str):
            break
    _check_against_sympy(_skew(_as_matrix(values, ps), ps), ps)


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
    _check_against_sympy(_skew(_as_matrix(values, ps), ps), ps)


@pytest.mark.parametrize("size", [4, 6, 10])
def test_skew_with_a_zero_leading_pfaffian_is_inverted_after_a_swap(size):
    """A skew matrix whose leading 2 x 2 Pfaffian is 0 (Delta of x1, x2,
    p1, p2, ... in that order) has no pivot block at (0, 1): the skew
    kernel swaps index 1 with a later one, and puts the rows of the
    inverse back."""
    ps = PhaseSpace(1)
    rng = random.Random(500 + size)
    while True:
        values = _constant_matrix(rng, size, fractions=False, skew=True)
        values[0][1] = values[1][0] = Fraction(0)
        if not isinstance(_fraction_inverse(values), str):
            break
    d, scaled = matrix._invert_skew_integers([[int(v) for v in row] for row in values])
    assert [[Fraction(v, d) for v in row] for row in scaled] == _fraction_inverse(values)
    _check_against_sympy(_skew(_as_matrix(values, ps), ps), ps)


def test_skew_kernel_declines_exactly_the_singular_matrices():
    """None for every singular skew matrix drawn, and an inverse for every
    nonsingular one, over seeded 2 x 2 to 10 x 10 matrices of entries in
    [-1, 1], where zero Pfaffian blocks and singular matrices are common."""
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
        if not singular:
            d, scaled = found
            assert [[Fraction(v, d) for v in row] for row in scaled] == expected
        seen[singular] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("size", [1, 3, 5])
def test_odd_skew_is_singular_with_the_fraction_path_message(size):
    ps = PhaseSpace(1)
    values = _constant_matrix(random.Random(600 + size), size, fractions=True, skew=True)
    message = _fraction_inverse(values)
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        invert_matrix(_skew(_as_matrix(values, ps), ps))


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
