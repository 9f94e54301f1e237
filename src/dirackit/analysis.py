"""Constraint classification, on-shell sampling, and the trace identity.

The headline computation: for a second-class system with m constraint
pairs on n canonical pairs, the sum of Dirac brackets {x_i, p_i}_D is
exactly the constant n - m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .brackets import (
    ConstraintSystem,
    DiracContext,
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
from .expr import RationalExpr
from .matrix import invert_matrix
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


def _bound_values(ps: PhaseSpace, z: np.ndarray, cfg: SamplerConfig) -> list[float]:
    values = list(map(float, z))
    for name in ps.parameters:
        if name not in cfg.parameter_bindings:
            raise ValidationError(f"parameter {name!r} has no numeric binding")
        values.append(float(cfg.parameter_bindings[name]))
    return values


def sample_on_shell(ctx: ConstraintSystem, cfg: SamplerConfig) -> list[dict[str, float]]:
    """Newton-project standard-normal seeds onto the constraint surface.

    Deterministic for a fixed config: one RNG stream, points generated
    in order.  The Jacobian is symbolic; the step is a least-squares
    solve since 2m equations under-determine 2n unknowns.  An attempt
    that meets a non-finite residual or Jacobian fails before the solve.
    """
    ps = ctx.ps
    nvars = 2 * ps.n
    constraints = ctx.constraints
    jac = [[chi.diff_index(j) for j in range(nvars)] for chi in constraints]
    rng = np.random.default_rng(cfg.seed)

    def residual(z):
        vals = _bound_values(ps, z, cfg)
        return np.array([chi.evaluate_vector(vals) for chi in constraints])

    def jacobian(z):
        vals = _bound_values(ps, z, cfg)
        return np.array([[e.evaluate_vector(vals) for e in row] for row in jac])

    points = []
    for _ in range(cfg.point_count):
        found = None
        for _attempt in range(cfg.max_retries):
            z = rng.standard_normal(nvars)
            try:
                for _it in range(cfg.max_newton_iters):
                    r = residual(z)
                    if np.max(np.abs(r)) <= cfg.tolerance:
                        found = z
                        break
                    jac_z = jacobian(z)
                    if not (np.isfinite(r).all() and np.isfinite(jac_z).all()):
                        break
                    step, *_ = np.linalg.lstsq(jac_z, -r, rcond=None)
                    z = z + step
            except (PoleAtPointError, FloatingPointError, np.linalg.LinAlgError):
                continue
            if found is not None:
                break
        if found is None:
            raise NoOnShellPointError(
                f"no on-shell point after {cfg.max_retries} retries")
        vals = _bound_values(ps, found, cfg)
        points.append(dict(zip(ps.symbols, vals)))
    return points


def classify_constraints(ps: PhaseSpace, constraints, cfg: SamplerConfig) -> Classification:
    """Second-class test: symbolic invertibility of Delta plus numeric
    full rank at sampled on-shell points.  Delta is built and inverted
    once; the resulting context rides along on the classification."""
    constraints = tuple(constraints)
    delta = delta_matrix(constraints, ps)
    try:
        context = DiracContext(ps, constraints, delta, invert_matrix(delta))
    except SingularMatrixError:
        context = None

    m = len(constraints) // 2
    rank = 2 * m
    for point in sample_on_shell(ConstraintSystem(ps, constraints, delta), cfg):
        values = [point[s] for s in ps.symbols]
        numeric = np.array([[delta.at(a, b).evaluate_vector(values)
                             for b in range(2 * m)] for a in range(2 * m)])
        sv = np.linalg.svd(numeric, compute_uv=False)
        top = sv[0] if len(sv) else 0.0
        rank = min(rank, int(np.sum(sv > RANK_TOLERANCE * max(top, 1e-300))))

    second_class = context is not None and rank == 2 * m
    return Classification(
        verdict="second_class" if second_class else "degenerate",
        m=m,
        symbolic_det_nonzero=context is not None,
        on_shell_rank=rank,
        dof_pairs=ps.n - m,
        context=context,
    )


def trace_identity(ctx: DiracContext) -> TraceIdentity:
    """Sum of {x_i, p_i}_D over all pairs; must equal n - m exactly."""
    ps = ctx.ps
    total = RationalExpr.zero(ps)
    for i in range(1, ps.n + 1):
        xi = RationalExpr.symbol(ps, ps.coordinates[i - 1])
        pi = RationalExpr.symbol(ps, ps.momenta[i - 1])
        total = total + dirac_bracket(xi, pi, ctx)
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
