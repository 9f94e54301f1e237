"""Constraint classification, on-shell sampling, and the trace identity.

The headline computation: for a second-class system with m constraint
pairs on n canonical pairs, the sum of Dirac brackets {x_i, p_i}_D is
exactly the constant n - m.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache, cached_property

from .brackets import (
    ConstraintSystem,
    DiracContext,
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
from .matrix import invert_matrix, row_reduce_fractions
from .numeric import PivotedQR
from .phase_space import PhaseSpace, Record
from .poly import affine_rows, reduce_by

RANK_TOLERANCE = 1e-8


class SamplerConfig(Record):
    __slots__ = _fields = ("seed", "tolerance", "max_newton_iters", "max_retries",
                           "point_count", "parameter_bindings")

    def __init__(self, seed: int = 0, tolerance: float = 1e-10, max_newton_iters: int = 100,
                 max_retries: int = 50, point_count: int = 16,
                 parameter_bindings: dict | None = None):
        if seed < 0:
            raise ValidationError("sampler seed must be >= 0")
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ValidationError("sampler tolerance must be finite and positive")
        if max_newton_iters < 1:
            raise ValidationError("sampler needs max_newton_iters >= 1")
        if max_retries < 1:
            raise ValidationError("sampler needs max_retries >= 1")
        if point_count < 1:
            raise ValidationError("sampler needs point_count >= 1")
        self._assign(seed, tolerance, max_newton_iters, max_retries, point_count,
                     {} if parameter_bindings is None else parameter_bindings)


class Classification(Record):
    # verdict is "second_class" or "degenerate".  context is the validated
    # context when Delta inverted, else None; it is not compared or reported.
    _fields = ("verdict", "m", "symbolic_det_nonzero", "on_shell_rank", "dof_pairs")
    __slots__ = _fields + ("context",)

    def __init__(self, verdict: str, m: int, symbolic_det_nonzero: bool, on_shell_rank: int,
                 dof_pairs: int, context: DiracContext | None = None):
        self._assign(verdict, m, symbolic_det_nonzero, on_shell_rank, dof_pairs, context=context)


class TraceIdentity(Record):
    _fields = ("value", "expected", "holds")
    __slots__ = _fields + ("__dict__",)  # value_text is cached in __dict__

    def __init__(self, value: RationalExpr, expected: int, holds: bool):
        self._assign(value, expected, holds)

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
                    self.base[i] = float(e.num.constant_value())
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
    returned point, in order.  `classify_constraints` asks for one point,
    and no values, when `exact_rank` has decided the rank before any point
    is drawn; that point only shows that the shell is nonempty.
    """
    ps = ctx.ps
    params = _parameter_values(ps, cfg)
    gradients = constraint_gradients(ctx.constraints, ps)
    delta = _delta_plan(ctx.delta)
    rng = random.Random(cfg.seed)

    blocks = []  # (variables, residual, Jacobian)
    for chis, variables in constraint_blocks(gradients):
        width = len(variables)
        residual = _Plan(len(chis), ((a, ctx.constraints[c]) for a, c in enumerate(chis)))
        jacobian = _Plan(len(chis) * width, ((a * width + variables.index(v), d)
                                             for a, c in enumerate(chis)
                                             for v, d in gradients[c].items()))
        blocks.append((variables, residual, jacobian))

    def project(values):
        """The values at the on-shell point Newton reaches from them, updated
        in place, and the values of Delta there, or None."""
        for variables, residual, jacobian in blocks:
            for _ in range(cfg.max_newton_iters):
                r = residual(values)
                if all(abs(v) <= cfg.tolerance for v in r):
                    break
                if not (_finite(r) and variables):
                    return None
                jac = jacobian(values)
                if not _finite(jac):
                    return None
                width = len(variables)
                qr = PivotedQR([jac[a:a + width] for a in range(0, len(jac), width)])
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


def _on_shell(ps: PhaseSpace, constraints, cfg: SamplerConfig):
    """value(poly): the exact constant poly equals on the shell when its
    remainder by the polynomial constraints mentions no variable (that
    remainder at the `Fraction` of each binding it mentions), else None;
    None too when such a binding is missing or not finite, which sampling
    reports or meets.  The shell lies where those constraints vanish,
    whatever the order of the divisors.  Each distinct poly is reduced
    once."""
    nvars = 2 * ps.n
    divisors = [chi.num for chi in constraints if chi.is_polynomial]

    def bound(i):
        return Fraction(cfg.parameter_bindings[ps.parameters[i - nvars]])

    @cache
    def value(poly):
        remainder = reduce_by(poly, divisors)
        if not remainder.symbols_used().isdisjoint(range(nvars)):
            return None
        try:
            return sum(c * math.prod(bound(i) ** e for i, e in enumerate(mono) if e)
                       for mono, c in remainder.sorted_terms())
        except (KeyError, ValueError, OverflowError):
            return None
    return value


def _shell_matrix(delta, value) -> list[list] | None:
    """Delta on the shell as one exact matrix of constants, or None: each
    entry above the diagonal, Delta being skew, is a constant there when
    its numerator is and each of its atoms is a nonzero one, as `value`
    (from `_on_shell`) reads them."""
    k = len(delta)
    at = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            e = delta[a][b]
            if e.is_zero:
                continue
            entry = value(e.num)
            for atom, power in e.atoms:
                den = None if entry is None else value(atom.poly)
                if not den:
                    return None
                entry /= den ** power
            if entry is None:
                return None
            at[a][b], at[b][a] = entry, -entry
    return at


def exact_rank(system: ConstraintSystem, inverse, cfg: SamplerConfig) -> int | None:
    """The rank of Delta on the shell, decided exactly with no point
    drawn, or None.

    It is 2m when inverse, the rows of Delta^-1, is given and each
    distinct atom of Delta and Delta^-1, in order, is an exactly nonzero
    constant on the shell: Delta Delta^-1 = I holds at every point where
    no atom of their denominators vanishes, since evaluation is a ring map
    there.  A constant Delta and its inverse have no atom.  Otherwise it
    is the rank by Gauss-Jordan on Fractions of `_shell_matrix`, Delta's
    value on the shell, when that is one matrix of constants.  A constant
    needs no binding, and each distinct polynomial is reduced once."""
    value = _on_shell(system.ps, system.constraints, cfg)
    delta, k = system.delta, len(system.delta)
    if inverse is not None and all(value(atom.poly) for atom in sorted(
            {atom for rows in (delta, inverse) for row in rows
             for e in row for atom, _ in e.atoms})):
        return k
    at = _shell_matrix(delta, value)
    return None if at is None else len(row_reduce_fractions(at, k))


def _affine_shell(system: ConstraintSystem, invertible: bool, cfg: SamplerConfig) -> bool:
    """True when `affine_rows` accepts the set, chi = A z + b, and its
    shell is then decided, exactly and with no point drawn, to be
    nonempty; False for any other set.  Delta is c A Omega A^T c for
    nonzero scales c (see `delta_matrix`), so an invertible Delta makes A
    of full row rank, and A z = -b has a solution.  Otherwise the shell
    is empty (NoOnShellPointError) unless rank A = rank [A | b] over Q,
    with b at the `Fraction` of each binding.  A missing binding is a
    ValidationError and a non-finite one that a constraint mentions a
    NoOnShellPointError, as when sampling."""
    ps, constraints = system.ps, system.constraints
    nvars = 2 * ps.n
    if not all(chi.is_polynomial for chi in constraints) \
            or affine_rows([chi.num for chi in constraints], nvars) is None:
        return False
    _parameter_values(ps, cfg)  # a missing binding is a ValidationError
    mentioned = {i - nvars for chi in constraints for i in chi.num.symbols_used() if i >= nvars}
    try:
        bound = {i: Fraction(cfg.parameter_bindings[ps.parameters[i]]) for i in mentioned}
    except (ValueError, OverflowError):
        raise NoOnShellPointError(
            "no on-shell point: a constraint mentions a parameter that is not finite") from None
    if invertible:
        return True
    rows = []
    for chi in constraints:
        row = [Fraction(0)] * (nvars + 1)  # A, then b
        for mono, c in chi.num.sorted_terms():
            i = next((i for i, e in enumerate(mono) if e), None)
            if i is None:
                row[nvars] += c
            elif i < nvars:
                row[i] = c
            else:
                row[nvars] += c * bound[i - nvars]
        rows.append(row)
    if nvars in row_reduce_fractions(rows, nvars + 1):
        raise NoOnShellPointError("no on-shell point: the affine constraints are inconsistent")
    return True


def classify_constraints(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Classification:
    """Second-class test: symbolic invertibility of Delta plus full rank
    on the shell.  Delta is built once and inverted once; the resulting
    context rides along on the classification.  `_affine_shell` first
    decides exactly whether an affine set's shell is nonempty, then
    `exact_rank` decides the rank, with no point drawn.  When it
    answers, an affine set draws no point and any other set one, which
    only shows that the shell is nonempty (NoOnShellPointError when it is
    not found); no QR is taken.  Only when it cannot answer does the
    sampler draw its `point_count` points, and the rank is numeric: a
    pivoted QR of each distinct value of Delta the sampler computed."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)
    try:
        context = DiracContext(ps, constraints, delta, invert_matrix(delta))
    except SingularMatrixError:
        context = None

    k = len(constraints)
    system = ConstraintSystem(ps, constraints, delta)
    affine = _affine_shell(system, context is not None, cfg)
    rank = exact_rank(system, None if context is None else context.delta_inv, cfg)
    if rank is None:
        at_points = []
        sample_on_shell(system, cfg, at_points)
        rank = min(PivotedQR([numeric[a * k:(a + 1) * k] for a in range(k)])
                   .rank(RANK_TOLERANCE)
                   for numeric in set(map(tuple, at_points)))  # distinct values, by rows
    elif not affine:
        sample_on_shell(system, SamplerConfig(cfg.seed, cfg.tolerance, cfg.max_newton_iters,
                                              cfg.max_retries, 1, cfg.parameter_bindings))

    second_class = context is not None and rank == k
    return Classification(
        verdict="second_class" if second_class else "degenerate",
        m=k // 2,
        symbolic_det_nonzero=context is not None,
        on_shell_rank=rank,
        dof_pairs=ps.n - k // 2,
        context=context,
    )


def trace_identity(ctx: DiracContext) -> TraceIdentity:
    """The sum over the pairs of {x_i, p_i}_D, cancelled; must equal n - m
    exactly.

    With u_a = dchi_a/dp_i and w_b = dchi_b/dx_i, {x_i, p_i}_D is
    1 - sum_ab u_a (Delta^-1)_ab w_b.  Summed over i, the double sum is
    sum_ab (Delta^-1)_ab S_ab with S_ab = sum_i u_a w_b, and Delta = S^T - S.
    Delta^-1 is skew, so that is -1/2 sum_ab (Delta^-1)_ab Delta_ab, and the
    trace is n + sum_{a<b} (Delta^-1)_ab Delta_ab: one `add_products` over
    entries the context holds, with no partial.  The value thus checks
    tr(Delta^-1 Delta) = 2m, not the partials; a value over atoms that
    share a factor can print otherwise than a sum of `dirac_bracket`s
    while the two are equal."""
    ps, inv, delta = ctx.ps, ctx.delta_inv, ctx.delta
    k = len(delta)
    total = add_products(RationalExpr.constant(ps, ps.n), [
        (inv[a][b], delta[a][b]) for a in range(k) for b in range(a + 1, k)]).cancel()
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
