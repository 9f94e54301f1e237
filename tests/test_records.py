"""The result and configuration records: read-only, compared by value,
and built with the same positional order, keywords, defaults and
validation as their callers use."""

from fractions import Fraction
from pathlib import Path

import pytest

from dirackit import (
    ConstraintSystem,
    PhaseSpace,
    RationalExpr,
    SamplerConfig,
    classify_constraints,
    closure_analysis,
    load_system,
    trace_identity,
)
from dirackit.closure import Decomposition, trace_verdict
from dirackit.errors import ValidationError

SPHERE = str(Path(__file__).resolve().parent.parent / "systems" / "sphere.system")


@pytest.fixture(scope="module")
def records():
    """One instance of each record, by name, from one run over the sphere."""
    spec = load_system(SPHERE)
    classification = classify_constraints(spec.ps, spec.constraints, spec.sampler)
    ctx = classification.context
    trace = trace_identity(ctx)
    return {
        "PhaseSpace": spec.ps,
        "SystemSpec": spec,
        "SamplerConfig": spec.sampler,
        "Classification": classification,
        "TraceIdentity": trace,
        "ConstraintSystem": ConstraintSystem(ctx.ps, ctx.constraints, ctx.delta),
        "DiracContext": ctx,
        "PrimarySet": spec.primaries,
        "Decomposition": Decomposition((Fraction(1),), Fraction(0)),
        "AlgebraReport": closure_analysis(spec.primaries, ctx, spec.on_shell_rules),
        "Verdict": trace_verdict(classification, trace),
    }


FIELDS = {
    "PhaseSpace": ("n", "parameters", "coordinates", "momenta", "symbols"),
    "SystemSpec": ("ps", "constraints", "primaries", "on_shell_rules", "sampler",
                   "input_digest"),
    "SamplerConfig": ("seed", "tolerance", "max_newton_iters", "max_retries", "point_count",
                      "parameter_bindings"),
    "Classification": ("verdict", "m", "symbolic_det_nonzero", "on_shell_rank", "dof_pairs",
                       "context"),
    "TraceIdentity": ("value", "expected", "holds"),
    "ConstraintSystem": ("ps", "constraints", "delta"),
    "DiracContext": ("ps", "constraints", "delta", "delta_inv"),
    "PrimarySet": ("names", "exprs", "hamiltonian"),
    "Decomposition": ("coefficients", "constant"),
    "AlgebraReport": ("mode", "names", "closed", "c", "z", "h", "h_const", "residuals",
                      "notes"),
    "Verdict": ("kind", "witness", "explanation"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_are_read_only(records, name):
    record = records[name]
    assert type(record).__name__ == name
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_phase_space_value_hash_and_repr():
    a, b = PhaseSpace(3, ["r"]), PhaseSpace(3, ("r",))
    assert a == b and hash(a) == hash(b) == hash((3, ("r",)))
    assert a != PhaseSpace(3) and a != PhaseSpace(4, ("r",))
    assert repr(a) == ("PhaseSpace(n=3, parameters=('r',), coordinates=('x1', 'x2', 'x3'), "
                       "momenta=('p1', 'p2', 'p3'))")


def test_classification_equality_ignores_the_context(records):
    c = records["Classification"]
    assert c.context is not None
    fields = (c.verdict, c.m, c.symbolic_det_nonzero, c.on_shell_rank, c.dof_pairs)
    assert c == type(c)(*fields) == type(c)(*fields, context=None)
    assert c != type(c)("degenerate", *fields[1:], context=c.context)
    assert "context" not in repr(c)


def test_decomposition_compares_by_value():
    one = Decomposition((Fraction(1), Fraction(1, 2)), Fraction(3))
    assert one == Decomposition(coefficients=(Fraction(1), Fraction(1, 2)),
                                constant=Fraction(3))
    assert one != Decomposition((Fraction(1), Fraction(1, 2)), Fraction(0))
    assert one != (one.coefficients, one.constant)
    assert repr(one) == ("Decomposition(coefficients=(Fraction(1, 1), Fraction(1, 2)), "
                         "constant=Fraction(3, 1))")


def test_trace_value_is_formatted_once(records, monkeypatch):
    calls = []
    printed = RationalExpr.__str__
    monkeypatch.setattr(RationalExpr, "__str__", lambda e: calls.append(1) or printed(e))
    t = trace_identity(records["DiracContext"])
    assert t.value_text == t.value_text == "2"
    assert len(calls) == 1


def test_sampler_config_defaults():
    a, b = SamplerConfig(), SamplerConfig()
    assert (a.seed, a.tolerance, a.max_newton_iters, a.max_retries, a.point_count) == \
        (0, 1e-10, 100, 50, 16)
    assert a.parameter_bindings == {} and a.parameter_bindings is not b.parameter_bindings
    assert a == b
    assert SamplerConfig(1, 1e-6, 5, 3, 2, {"r": 1.0}) == SamplerConfig(
        seed=1, tolerance=1e-6, max_newton_iters=5, max_retries=3, point_count=2,
        parameter_bindings={"r": 1.0})


@pytest.mark.parametrize("kwargs,message", [
    ({"seed": -1}, "sampler seed must be >= 0"),
    ({"tolerance": 0.0}, "sampler tolerance must be finite and positive"),
    ({"tolerance": float("nan")}, "sampler tolerance must be finite and positive"),
    ({"tolerance": float("inf")}, "sampler tolerance must be finite and positive"),
    ({"max_newton_iters": 0}, "sampler needs max_newton_iters >= 1"),
    ({"max_retries": 0}, "sampler needs max_retries >= 1"),
    ({"point_count": 0}, "sampler needs point_count >= 1"),
    ({"seed": -1, "point_count": 0}, "sampler seed must be >= 0"),
])
def test_sampler_config_validation(kwargs, message):
    with pytest.raises(ValidationError) as info:
        SamplerConfig(**kwargs)
    assert str(info.value) == message
