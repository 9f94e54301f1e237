"""Exact matrix inversion over the rational-function field."""

import operator
import random
from fractions import Fraction

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
from dirackit.sysfile import parse_system

from conftest import (identity, is_skew_symmetric, linear_mix_constraints, matmul,
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
    # on the general path and on the integer path alike.
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
        rows = [list(mat[i] + unit[i]) for i in range(size)]
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
        for inv_row, general_row in zip(inv, general, strict=True):
            for e, g in zip(inv_row, general_row, strict=True):
                assert (e.num, e.den) == (g.num, g.den)
                assert str(e) == str(g)


# -- the fraction-free inverse of a constant matrix -----------------------

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
    """Matrices whose determinant meets Hadamard's bound fill the widest
    slot a minor can; huge entries and unlike scales come out exact."""
    import sympy

    values = [[Fraction(v) for v in row] for row in SLOT_CASES[name]]
    size = len(values)
    det = sympy.Matrix(values).det()
    if name.startswith(("sylvester", "conference")):
        assert det ** 2 == _hadamard_bound_squared(values)
    expected = _fraction_inverse(values)
    inverse = invert_matrix(_as_matrix(values, PhaseSpace(1)))
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
