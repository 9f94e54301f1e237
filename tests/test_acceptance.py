"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its time budget.  Run with `pytest -s` to see the
per-criterion lines as they complete.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from dirackit import (
    PhaseSpace,
    PrimarySet,
    SamplerConfig,
    bracket_table,
    closure_analysis,
    dirac_bracket,
    finite_dim_obstruction,
    lemma_verdict,
    make_context,
    parse_expression,
    poisson_bracket,
    reduction_check,
    sample_on_shell,
    trace_identity,
)
from dirackit.cli import main

from conftest import (fd_dirac, fd_poisson, linear_mix_constraints, random_point,
                      random_polynomial)

SPHERE_FILE = str(Path(__file__).resolve().parent.parent / "systems" / "sphere.system")


def E(text, ps):
    return parse_expression(text, ps)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, \
        f"criterion {number} exceeded budget: {elapsed:.2f}s >= {budget_seconds}s"


def sphere_system():
    ps = PhaseSpace(3, parameters=("r",))
    constraints = [E("x1^2 + x2^2 + x3^2 - r^2", ps),
                   E("p1*x1 + p2*x2 + p3*x3", ps)]
    return ps, constraints


def generated_family():
    """Second-class systems spanning n in 2..6, m in 1..n: eliminated
    pairs, random invertible linear mixes of pairs, and the sphere."""
    rng = random.Random(1234)
    family = []
    for n in range(2, 7):
        ps = PhaseSpace(n)
        for m in range(1, n + 1):
            pairs = []
            for k in range(1, m + 1):
                pairs.append(E(ps.coordinates[k - 1], ps))
                pairs.append(E(ps.momenta[k - 1], ps))
            family.append((ps, pairs, m, None))
            family.append((ps, linear_mix_constraints(ps, m, rng), m, None))
    ps_s, cs_s = sphere_system()
    family.append((ps_s, cs_s, 1, {"r": 1.0}))
    return family


def test_criterion_1_canonical_relations():
    with criterion(1, "canonical bracket table for n = 1..6", 1.0):
        for n in range(1, 7):
            ps = PhaseSpace(n)
            items = [E(s, ps) for s in ps.coordinates + ps.momenta]
            table = bracket_table(items, ps)
            one = E("1", ps)
            for a in range(2 * n):
                for b in range(2 * n):
                    if b == a + n:
                        assert table[a, b] == one
                    elif a == b + n:
                        assert table[a, b] == -one
                    else:
                        assert table[a, b].is_zero


def test_criterion_2_trace_identity_family():
    with criterion(2, "trace identity over >= 20 generated systems", 30.0):
        family = generated_family()
        assert len(family) >= 20
        for ps, constraints, m, _ in family:
            ctx = make_context(ps, constraints)
            t = trace_identity(ctx)
            assert t.expected == ps.n - m
            assert t.holds, f"trace identity failed for n={ps.n}, m={m}"


def test_criterion_3_lemma_verdicts():
    with criterion(3, "lemma verdict across the generated family", 30.0):
        for ps, constraints, m, bindings in generated_family():
            cfg = SamplerConfig(seed=99, point_count=3,
                                parameter_bindings=bindings or {})
            verdict = lemma_verdict(ps, constraints, cfg)
            if m < ps.n:
                assert verdict.kind == "infinite_dimensional"
                assert verdict.witness["trace_value"] == ps.n - m
            else:
                assert verdict.kind == "trivial_system"


def test_criterion_4_casimir_property():
    with criterion(4, "constraints are Casimirs of the Dirac bracket", 60.0):
        rng = random.Random(555)
        systems = []
        ps3 = PhaseSpace(3)
        systems.append(make_context(ps3, [E("x1", ps3), E("p1", ps3)]))
        ps4 = PhaseSpace(4)
        systems.append(make_context(ps4, linear_mix_constraints(ps4, 2, rng)))
        ps_s, cs_s = sphere_system()
        systems.append(make_context(ps_s, cs_s))
        for ctx in systems:
            for _ in range(100):
                f = random_polynomial(ctx.ps, rng, max_degree=3, max_terms=3)
                for chi in ctx.constraints:
                    assert dirac_bracket(f, chi, ctx).is_zero


def test_criterion_5_sphere_closed_forms():
    with criterion(5, "sphere Dirac brackets vs finite-difference oracle", 10.0):
        ps, constraints = sphere_system()
        ctx = make_context(ps, constraints)
        cfg = SamplerConfig(seed=2718, point_count=10,
                            parameter_bindings={"r": 1.0})
        points = sample_on_shell(ctx, cfg)
        canon = [E(s, ps) for s in ps.coordinates + ps.momenta]
        for a in range(6):
            for b in range(a + 1, 6):
                symbolic = dirac_bracket(canon[a], canon[b], ctx)
                for point in points:
                    assert abs(symbolic.evaluate(point)
                               - fd_dirac(canon[a], canon[b], ctx, point)) <= 1e-6


def test_criterion_6_reduction_equivalence():
    with criterion(6, "Dirac bracket equals reduced-space Poisson bracket", 30.0):
        ps = PhaseSpace(3)
        ctx = make_context(ps, [E("x1", ps), E("p1", ps)])
        kept = ("x2", "x3", "p2", "p3")
        rng = random.Random(606)
        point = random_point(ps, random.Random(607))
        for _ in range(100):
            f = random_polynomial(ps, rng, symbols=kept)
            g = random_polynomial(ps, rng, symbols=kept)
            assert reduction_check(ctx, {1}, f, g)
            # An oracle that does not go through poisson_bracket.
            assert abs(dirac_bracket(f, g, ctx).evaluate(point)
                       - fd_poisson(f, g, ps, point)) <= 1e-6


def test_criterion_7_obstruction_logic():
    with criterion(7, "obstruction verdicts: angular momentum vs canonical", 10.0):
        ps = PhaseSpace(3)
        angular = PrimarySet(
            names=("L1", "L2", "L3"),
            exprs=(E("x2*p3 - x3*p2", ps), E("x3*p1 - x1*p3", ps),
                   E("x1*p2 - x2*p1", ps)))
        report = closure_analysis(angular, ps)
        assert report.closed
        assert all(v == 0 for row in report.z for v in row)
        assert finite_dim_obstruction(report).kind == "no_obstruction_detected"

        rng = random.Random(707)
        names = tuple(ps.coordinates + ps.momenta)
        canon = PrimarySet(names=names, exprs=tuple(E(s, ps) for s in names))
        contexts = [
            make_context(ps, [E("x1", ps), E("p1", ps)]),
            make_context(ps, [E("x1", ps), E("p1", ps), E("x2", ps), E("p2", ps)]),
            make_context(ps, linear_mix_constraints(ps, 2, rng)),
        ]
        for ctx in contexts:
            rep = closure_analysis(canon, ctx)
            assert rep.closed
            assert any(v != 0 for row in rep.z for v in row)
            assert finite_dim_obstruction(rep).kind == "infinite_dimensional"


def test_criterion_8_bracket_axioms():
    with criterion(8, "skew/Leibniz both modes, Jacobi exact and on shell", 120.0):
        ps = PhaseSpace(3)
        ctx = make_context(ps, [E("x1", ps), E("p1", ps)])
        rng = random.Random(808)
        for _ in range(200):
            f = random_polynomial(ps, rng, max_degree=3, max_terms=3)
            g = random_polynomial(ps, rng, max_degree=3, max_terms=3)
            assert (poisson_bracket(f, g, ps) + poisson_bracket(g, f, ps)).is_zero
            assert (dirac_bracket(f, g, ctx) + dirac_bracket(g, f, ctx)).is_zero
        for _ in range(100):
            f = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            g = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            h = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            assert (poisson_bracket(f, g * h, ps)
                    - poisson_bracket(f, g, ps) * h
                    - g * poisson_bracket(f, h, ps)).is_zero
            assert (dirac_bracket(f, g * h, ctx)
                    - dirac_bracket(f, g, ctx) * h
                    - g * dirac_bracket(f, h, ctx)).is_zero
        for _ in range(100):
            f = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            g = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            h = random_polynomial(ps, rng, max_degree=2, max_terms=3)
            assert (poisson_bracket(f, poisson_bracket(g, h, ps), ps)
                    + poisson_bracket(g, poisson_bracket(h, f, ps), ps)
                    + poisson_bracket(h, poisson_bracket(f, g, ps), ps)).is_zero
        # Dirac Jacobi on the sphere, numerically at on-shell points
        ps_s, cs_s = sphere_system()
        ctx_s = make_context(ps_s, cs_s)
        points = sample_on_shell(ctx_s, SamplerConfig(
            seed=33, point_count=4, parameter_bindings={"r": 1.0}))
        for _ in range(4):
            f = random_polynomial(ps_s, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            g = random_polynomial(ps_s, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            h = random_polynomial(ps_s, rng, max_degree=2, max_terms=2,
                                  variables_only=True)
            cyc = dirac_bracket(f, dirac_bracket(g, h, ctx_s), ctx_s) \
                + dirac_bracket(g, dirac_bracket(h, f, ctx_s), ctx_s) \
                + dirac_bracket(h, dirac_bracket(f, g, ctx_s), ctx_s)
            for point in points:
                assert abs(cyc.evaluate(point)) <= 1e-8


def test_criterion_9_determinism(capsys):
    with criterion(9, "byte-identical JSON analyze output", 5.0):
        assert main(["analyze", SPHERE_FILE, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", SPHERE_FILE, "--format", "json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "verdict" in json.loads(first)
