"""Constraint classification, on-shell sampling, and the trace identity.

The headline computation: for a second-class system with m constraint
pairs on n canonical pairs, the sum of Dirac brackets {x_i, p_i}_D is
exactly the constant n - m.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property

from .brackets import (
    ConstraintSystem,
    DiracContext,
    constraint_gradients,
    delta_matrix,
    dirac_bracket,
    invert_delta,
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
from .expr import RationalExpr
from .matrix import ExprMatrix
from .numeric import PivotedQR
from .parser import parse_expression
from .phase_space import PhaseSpace

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


def _delta_plan(delta: ExprMatrix) -> _Plan:
    return _Plan(len(delta.entries), enumerate(delta.entries))


def _finite(values) -> bool:
    return all(map(math.isfinite, values))


def sample_on_shell(ctx: ConstraintSystem, cfg: SamplerConfig,
                    delta_values: list | None = None) -> list[dict[str, float]]:
    """Newton-project standard-normal seeds onto the constraint surface.

    Deterministic for a fixed config: one `random.Random(seed)` stream,
    points generated in order.  The Jacobian is read from the symbolic
    constraint gradients.  The step is a least-squares solve of J s = -r
    through a pivoted QR of J^T truncated at its numeric rank: 2m
    equations under-determine 2n unknowns, and they may be dependent.
    An attempt fails on a pole, a float overflow, a non-finite residual
    or Jacobian, or a converged point where Delta is not finite.  Delta
    is evaluated once per converged point; given a list, delta_values
    receives its row-major values at each returned point, in order.
    """
    ps = ctx.ps
    nvars = 2 * ps.n
    k = len(ctx.constraints)
    params = _parameter_values(ps, cfg)
    gradients = constraint_gradients(ctx.constraints, ps)
    residual = _Plan(k, enumerate(ctx.constraints))
    jacobian = _Plan(k * nvars, ((a * nvars + j, d) for a, grad in enumerate(gradients)
                                 for j, d in grad.items()))
    delta = _delta_plan(ctx.delta)
    rng = random.Random(cfg.seed)

    def factor(values):
        """The pivoted QR of J^T at the values, or None if J is not finite."""
        jac = jacobian(values)
        if not _finite(jac):
            return None
        return PivotedQR([jac[a * nvars:(a + 1) * nvars] for a in range(k)])

    constant_qr = None if jacobian.varying else factor(())

    def project(z):
        """The values at the on-shell point Newton reaches from z and the
        values of Delta there, or None."""
        for _ in range(cfg.max_newton_iters):
            values = z + params
            r = residual(values)
            if all(abs(v) <= cfg.tolerance for v in r):
                at = delta(values)
                return (values, at) if _finite(at) else None
            if not _finite(r):
                return None
            qr = factor(values) if jacobian.varying else constant_qr
            if qr is None:
                return None
            z = [a + b for a, b in zip(z, qr.transposed_solve([-v for v in r]))]
        return None

    points = []
    for _ in range(cfg.point_count):
        for _attempt in range(cfg.max_retries):
            try:
                found = project([rng.gauss(0.0, 1.0) for _ in range(nvars)])
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


def classify_constraints(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Classification:
    """Second-class test: symbolic invertibility of Delta plus numeric
    full rank at sampled on-shell points.  Delta is built once and
    inverted once; the resulting context rides along on the
    classification.  The rank is read off a pivoted QR of each distinct
    value of Delta the sampler computed at its points."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)
    try:
        context = DiracContext(ps, constraints, delta, invert_delta(delta))
    except SingularMatrixError:
        context = None

    k = len(constraints)
    at_points = []
    sample_on_shell(ConstraintSystem(ps, constraints, delta), cfg, at_points)
    rank = k
    for numeric in set(map(tuple, at_points)):  # a constant Delta has one value
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


def trace_identity(ctx: DiracContext) -> TraceIdentity:
    """Sum over the pairs of Pi_D[x_i, p_i] = {x_i, p_i}_D, each one
    cancelled, and the sum cancelled; must equal n - m exactly.

    Pi_D[x_i, p_i] = 1 - sum_a u_a * sum_b (Delta^-1)_ab w_b, where
    u_a = {x_i, chi_a} = dchi_a/dp_i and w_b = {chi_b, p_i} = dchi_b/dx_i
    are read from the memoised partials; exact zeros are skipped.  With
    an opaque (non-polynomial) operand the printed value depends on this
    grouping, and it can differ from that of a sum of `dirac_bracket`s,
    which subtracts term by term, while the two are equal."""
    ps, chis = ctx.ps, ctx.constraints
    inverse = [ctx.delta_inv.row(a) for a in range(len(chis))]
    one = RationalExpr.constant(ps, 1)
    total = RationalExpr.zero(ps)
    for i in range(1, ps.n + 1):
        u = [chi.diff_index(ps.momentum_index(i)) for chi in chis]
        w = [chi.diff_index(ps.coordinate_index(i)) for chi in chis]
        pair = one
        for ua, row in zip(u, inverse):
            if ua.is_zero:
                continue
            terms = [entry * wb for entry, wb in zip(row, w)
                     if not (wb.is_zero or entry.is_zero)]
            if terms:
                pair = pair - ua * sum(terms[1:], terms[0])
        total = total + pair.cancel()
    total = total.cancel()
    expected = ps.n - ctx.m
    holds = (total - RationalExpr.constant(ps, expected)).is_zero
    return TraceIdentity(value=total, expected=expected, holds=holds)


def _mentions(e: RationalExpr, indices: set[int]) -> bool:
    return any(not indices.isdisjoint(poly.symbols_used()) for poly in (e.num, e.den))


def reduction_check(ctx: DiracContext, eliminated: set[int],
                    f: RationalExpr, g: RationalExpr) -> bool:
    """Dirac bracket for eliminated-pair constraints equals the Poisson
    bracket on the phase space with those pairs removed."""
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
    if _mentions(f, banned) or _mentions(g, banned):
        raise PreconditionViolatedError("f or g mentions an eliminated variable")

    keep = [i for i in range(1, ps.n + 1) if i not in eliminated]
    reduced = PhaseSpace(
        n=len(keep),
        parameters=ps.parameters,
        coordinates=tuple(ps.coordinates[i - 1] for i in keep),
        momenta=tuple(ps.momenta[i - 1] for i in keep),
    )
    f_red = parse_expression(str(f), reduced)
    g_red = parse_expression(str(g), reduced)
    pb_red = poisson_bracket(f_red, g_red, reduced)
    pb_lifted = parse_expression(str(pb_red), ps)
    return (dirac_bracket(f, g, ctx) - pb_lifted).is_zero


def dof_count(n: int, m: int) -> int:
    """Remaining canonical pairs after eliminating m second-class pairs."""
    if m < 0 or n < 0 or m > n:
        raise InvalidCountsError(f"need 0 <= m <= n, got n={n}, m={m}")
    return n - m
