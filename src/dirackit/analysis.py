"""Constraint classification, on-shell sampling, and the trace identity.

The headline computation: for a second-class system with m constraint
pairs on n canonical pairs, the sum of Dirac brackets {x_i, p_i}_D is
exactly the constant n - m.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from operator import mul

from .brackets import (
    ConstraintSystem,
    DiracContext,
    _affine_rows,
    _support,
    constraint_gradients,
    delta_matrix,
    dirac_bracket,
    poisson_bracket,
)
from .errors import (
    InvalidCountsError,
    NoOnShellPointError,
    PoleAtPointError,
    PreconditionViolatedError,
    SingularMatrixError,
    ValidationError,
)
from .expr import RationalExpr, add_products
from .matrix import invert_matrix
from .numeric import PivotedQR
from .phase_space import PhaseSpace
from .poly import reduce_by

RANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    tolerance: float = 1e-10
    max_newton_iters: int = 100
    max_retries: int = 50
    point_count: int = 16
    parameter_bindings: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError("sampler seed must be >= 0")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValidationError("sampler tolerance must be finite and positive")
        if self.max_newton_iters < 1:
            raise ValidationError("sampler needs max_newton_iters >= 1")
        if self.max_retries < 1:
            raise ValidationError("sampler needs max_retries >= 1")
        if self.point_count < 1:
            raise ValidationError("sampler needs point_count >= 1")


@dataclass(frozen=True)
class Classification:
    verdict: str  # "second_class" | "degenerate"
    m: int
    symbolic_det_nonzero: bool
    on_shell_rank: int
    dof_pairs: int
    # The validated context when Delta inverted, else None; not reported.
    context: DiracContext | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TraceIdentity:
    value: RationalExpr
    expected: int
    holds: bool

    @cached_property
    def value_text(self) -> str:
        """The printed value, formatted once; it can run to thousands of terms."""
        return str(self.value)


def _parameter_values(ps: PhaseSpace, cfg: SamplerConfig) -> list[float]:
    values = []
    for name in ps.parameters:
        if name not in cfg.parameter_bindings:
            raise ValidationError(f"parameter {name!r} has no numeric binding")
        values.append(float(cfg.parameter_bindings[name]))
    return values


class _Plan:
    """Float values of a fixed, sparse list of expressions, planned once.

    Exact zeros are left out, constants are evaluated when the plan is
    built (one too large for a float becomes inf), and an expression
    whose denominator is exactly 1 evaluates its numerator directly,
    since it cannot have a pole.
    """

    __slots__ = ("base", "varying")

    def __init__(self, size: int, entries):
        self.base = [0.0] * size
        self.varying = []
        for i, e in entries:
            if e.is_zero:
                continue
            if e.num.is_constant and e.den.is_constant:
                try:
                    self.base[i] = e.num.evaluate(())
                except OverflowError:
                    self.base[i] = math.inf
            else:
                self.varying.append((i, e.num.evaluate if e.is_polynomial else e.evaluate_vector))

    def __call__(self, values) -> list[float]:
        out = self.base[:]
        for i, evaluate in self.varying:
            out[i] = evaluate(values)
        return out


def _delta_plan(delta) -> _Plan:
    return _Plan(len(delta) ** 2, enumerate(e for row in delta for e in row))


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def constraint_blocks(gradients) -> list[tuple[list[int], list[int]]]:
    """The connected components of "these constraints share a variable",
    as (constraints, variables), each ascending, ordered by first
    constraint.  Gradients are keyed by variables only: a shared parameter
    joins nothing, and a constraint free of variables is a block alone."""
    blocks = []
    for a, grad in enumerate(gradients):
        chis, variables, apart = [a], set(grad), []
        for block in blocks:
            if variables.isdisjoint(block[1]):
                apart.append(block)
            else:
                chis += block[0]
                variables |= block[1]
        blocks = apart + [(chis, variables)]
    return sorted((sorted(chis), sorted(variables)) for chis, variables in blocks)


def sample_on_shell(ctx: ConstraintSystem, cfg: SamplerConfig,
                    delta_values: list | None = None) -> list[dict[str, float]]:
    """Newton-project standard-normal seeds onto the constraint surface.

    Deterministic for a fixed config: one `random.Random(seed)` stream,
    points generated in order.  Newton runs on one block of
    `constraint_blocks` at a time, at most max_newton_iters steps each:
    J is block-diagonal, so a block takes the steps Newton on the whole
    system would, until it converges.  A step is a least-squares solve of
    J s = -r through a pivoted QR of the block's J^T truncated at its
    numeric rank, since its equations may be dependent.  An attempt fails
    on a pole, a float overflow, a non-finite residual or Jacobian, a
    block free of variables off tolerance, or a converged point where
    Delta is not finite.  Delta is evaluated once per converged point;
    given a list, delta_values receives its row-major values at each
    returned point, in order.  `classify_constraints` asks for one point
    when its rank decision needs no more values of Delta; that point
    only shows that the shell is nonempty.
    """
    ps = ctx.ps
    params = _parameter_values(ps, cfg)
    gradients = constraint_gradients(ctx.constraints, ps)
    delta = _delta_plan(ctx.delta)
    rng = random.Random(cfg.seed)

    def factor(jacobian, width, values):
        """The pivoted QR of a block's J^T at the values; None if J is not finite."""
        jac = jacobian(values)
        if not _finite(jac):
            return None
        return PivotedQR([jac[a:a + width] for a in range(0, len(jac), width)])

    blocks = []  # (variables, residual, Jacobian, the QR of a constant J)
    for chis, variables in constraint_blocks(gradients):
        width = len(variables)
        residual = _Plan(len(chis), ((a, ctx.constraints[c]) for a, c in enumerate(chis)))
        jacobian = _Plan(len(chis) * width, ((a * width + variables.index(v), d)
                                             for a, c in enumerate(chis)
                                             for v, d in gradients[c].items()))
        blocks.append((variables, residual, jacobian, None if jacobian.varying or not width
                       else factor(jacobian, width, ())))

    def project(values):
        """The values at the on-shell point Newton reaches from them, updated
        in place, and the values of Delta there, or None."""
        for variables, residual, jacobian, constant_qr in blocks:
            for _ in range(cfg.max_newton_iters):
                r = residual(values)
                if all(abs(v) <= cfg.tolerance for v in r):
                    break
                if not (_finite(r) and variables):
                    return None
                qr = factor(jacobian, len(variables), values) if jacobian.varying else constant_qr
                if qr is None:
                    return None
                for i, step in zip(variables, qr.transposed_solve([-v for v in r])):
                    values[i] += step
            else:
                return None
        at = delta(values)
        return (values, at) if _finite(at) else None

    points = []
    for _ in range(cfg.point_count):
        for _attempt in range(cfg.max_retries):
            try:
                found = project([rng.gauss(0.0, 1.0) for _ in range(2 * ps.n)] + params)
            except (PoleAtPointError, OverflowError):
                continue
            if found is not None:
                break
        else:
            raise NoOnShellPointError(
                f"no on-shell point after {cfg.max_retries} retries")
        values, at = found
        points.append(dict(zip(ps.symbols, values)))
        if delta_values is not None:
            delta_values.append(at)
    return points


def _values_needed(ps: PhaseSpace, constraints, delta, cfg: SamplerConfig) -> int | None:
    """How many sampled values of Delta decide its on-shell rank: 1 when
    no entry mentions a phase-space variable (every point gives the same
    value), 0 when Delta is certified invertible on the shell, else None
    (all `point_count` of them).

    Certified: each row has exactly one nonzero entry, so Delta is a
    permuted direct sum of 2 x 2 blocks, and each block's entry is a
    polynomial whose remainder by the polynomial constraints mentions no
    variable and is exactly nonzero at the parameters' bindings.  Every
    constraint vanishes on the shell, so there the entry equals that
    remainder, whatever the order of the divisors."""
    variables = range(2 * ps.n)
    if all(_support(e).isdisjoint(variables) for row in delta for e in row):
        return 1
    try:
        bound = [Fraction(cfg.parameter_bindings[name]) for name in ps.parameters]
    except (KeyError, ValueError, OverflowError):
        return None  # a missing or non-finite binding: sampling reports or meets it
    divisors = [chi.num for chi in constraints if chi.is_polynomial]
    for row in delta:
        nonzero = [e for e in row if not e.is_zero]
        if len(nonzero) != 1 or not nonzero[0].is_polynomial:
            return None
        remainder = reduce_by(nonzero[0].num, divisors)
        if not remainder.symbols_used().isdisjoint(variables):
            return None
        value = sum(c * math.prod(bound[i - len(variables)] ** k for i, k in enumerate(mono) if k)
                    for mono, c in remainder.sorted_terms())
        if not value:
            return None
    return 0


def classify_constraints(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Classification:
    """Second-class test: symbolic invertibility of Delta plus full rank
    on the shell.  Delta is built once and inverted once; the resulting
    context rides along on the classification.  Unless `_values_needed`
    decides the rank from one value of Delta or without any, the rank is
    numeric: a pivoted QR of each distinct value of Delta the sampler
    computed at its `point_count` points.  Otherwise the sampler draws one
    point, which only shows that the shell is nonempty (NoOnShellPointError
    when it is not found)."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)
    try:
        context = DiracContext(ps, constraints, delta, invert_matrix(delta))
    except SingularMatrixError:
        context = None

    k = len(constraints)
    needed = _values_needed(ps, constraints, delta, cfg)
    at_points = []
    sample_on_shell(ConstraintSystem(ps, constraints, delta),
                    cfg if needed is None else replace(cfg, point_count=1), at_points)
    rank = k
    for numeric in set(map(tuple, at_points[:needed])):  # distinct values; none if certified
        qr = PivotedQR([numeric[a * k:(a + 1) * k] for a in range(k)])  # the rows of Delta
        rank = min(rank, qr.rank(RANK_TOLERANCE))

    second_class = context is not None and rank == k
    return Classification(
        verdict="second_class" if second_class else "degenerate",
        m=k // 2,
        symbolic_det_nonzero=context is not None,
        on_shell_rank=rank,
        dof_pairs=ps.n - k // 2,
        context=context,
    )


def _affine_trace(rows, delta_inv, n: int) -> Fraction:
    """sum_i (1 - sum_ab u_a (Delta^-1)_ab w_b) with u_a = c_a A_a[p_i]
    and w_b = c_b A_b[x_i] from `_affine_rows`, summed over Python ints:
    c_a = U_a / d over the lcm d of the contents' denominators, and the
    constant (Delta^-1)_ab = K_ab / D over the lcm D of its entries'.  A
    nonzero constant polynomial is its own signed content."""
    inv = [[(0, 1) if e.is_zero else e.num.signed_content() for e in row] for row in delta_inv]
    big_d = math.lcm(*(den for row in inv for _, den in row))
    d = math.lcm(*(den for _, den, _ in rows))
    u = [[num * (d // den) * c for c in coefficients[n:]] for num, den, coefficients in rows]
    w = [[num * (d // den) * c for c in coefficients[:n]] for num, den, coefficients in rows]
    total = 0
    for ua, row in zip(u, inv):
        if any(ua):
            for wb, (num, den) in zip(w, row):
                if num:
                    total += num * (big_d // den) * sum(map(mul, ua, wb))
    scale = d * d * big_d
    return Fraction(n * scale - total, scale)


def trace_identity(ctx: DiracContext) -> TraceIdentity:
    """Sum over the pairs of Pi_D[x_i, p_i] = {x_i, p_i}_D, each one
    cancelled, and the sum cancelled; must equal n - m exactly.

    Pi_D[x_i, p_i] = 1 - sum_a u_a * sum_b (Delta^-1)_ab w_b, where
    u_a = {x_i, chi_a} = dchi_a/dp_i and w_b = {chi_b, p_i} = dchi_b/dx_i.
    An affine set's u, w and Delta^-1 are constants, summed as integers
    by `_affine_trace`.  Otherwise u and w are read from the memoised
    partials and both sums are `add_products`, which skips exact zeros.
    A value over atoms that share a factor may cancel differently under
    another grouping, so with non-polynomial constraints it can print
    otherwise than a sum of `dirac_bracket`s while the two are equal."""
    ps, chis = ctx.ps, ctx.constraints
    rows = _affine_rows(chis, ps)
    if rows is not None:
        total = RationalExpr.constant(ps, _affine_trace(rows, ctx.delta_inv, ps.n))
    else:
        one, zero = RationalExpr.constant(ps, 1), RationalExpr.zero(ps)
        total = zero
        for i in range(1, ps.n + 1):
            u = [chi.diff_index(ps.momentum_index(i)) for chi in chis]
            w = [chi.diff_index(ps.coordinate_index(i)) for chi in chis]
            pair = add_products(one, [(-ua, add_products(zero, zip(row, w)))
                                      for ua, row in zip(u, ctx.delta_inv) if not ua.is_zero])
            total = total + pair.cancel()
        total = total.cancel()
    expected = ps.n - ctx.m
    holds = (total - RationalExpr.constant(ps, expected)).is_zero
    return TraceIdentity(value=total, expected=expected, holds=holds)


def reduction_check(ctx: DiracContext, eliminated: set[int],
                    f: RationalExpr, g: RationalExpr) -> bool:
    """Dirac bracket for eliminated-pair constraints equals the Poisson
    bracket on the phase space with those pairs removed.  f and g must
    not mention an eliminated variable, so that bracket is their Poisson
    bracket on the full phase space, term for term."""
    ps = ctx.ps
    eliminated = set(eliminated)
    expected = []
    for k in sorted(eliminated):
        expected.append(RationalExpr.symbol(ps, ps.coordinates[k - 1]))
        expected.append(RationalExpr.symbol(ps, ps.momenta[k - 1]))
    actual = list(ctx.constraints)
    if len(actual) != len(expected) or not all(
            any(a == e for a in actual) for e in expected):
        raise PreconditionViolatedError(
            "context constraints are not exactly the eliminated pairs")

    banned = {ps.coordinate_index(k) for k in eliminated} \
        | {ps.momentum_index(k) for k in eliminated}
    if not banned.isdisjoint(_support(f) | _support(g)):
        raise PreconditionViolatedError("f or g mentions an eliminated variable")
    return (dirac_bracket(f, g, ctx) - poisson_bracket(f, g, ps)).is_zero


def dof_count(n: int, m: int) -> int:
    """Remaining canonical pairs after eliminating m second-class pairs."""
    if m < 0 or n < 0 or m > n:
        raise InvalidCountsError(f"need 0 <= m <= n, got n={n}, m={m}")
    return n - m
