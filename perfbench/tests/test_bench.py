"""Self-test of the benchmark's tracer and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import dirackit  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPHERE = workloads.SYSTEMS / "sphere.system"


def traced_analyze(path=SPHERE) -> tracer.Tracer:
    t = tracer.Tracer()
    with t.installed(), t.request(path.name):
        code, text = workloads.analyze(str(path))
    assert code == 0 and text
    return t


def calls(t: tracer.Tracer) -> dict:
    return {name: layer.calls for name, layer in t.layers.items()}


def namespaces() -> dict:
    """Every attribute of every dirackit module and of the kernel classes."""
    owners = tracer._dirackit_modules() + [dirackit.poly.Polynomial,
                                            dirackit.expr.RationalExpr]
    return {(repr(owner), key): value for owner in owners
            for key, value in list(vars(owner).items())}


def test_sphere_counts_match_roadmap_baseline():
    c = calls(traced_analyze())
    assert c["analysis.classify"] == 2
    assert c["matrix.invert"] == 4
    assert c["analysis.sample"] == 2
    assert c["analysis.trace"] == 2


def test_counts_repeat_exactly():
    first, second = traced_analyze(), traced_analyze()
    assert calls(first) == calls(second)
    assert first.counters == second.counters
    assert len(first.spans) == len(second.spans)


def test_imported_copies_are_patched_and_every_name_restored():
    before = namespaces()
    original = dirackit.analysis.classify_constraints
    t = tracer.Tracer()
    with t.installed():
        # cli and closure call their own `from .analysis import` copies
        for module in (dirackit.cli, dirackit.closure, dirackit.analysis, dirackit):
            assert module.classify_constraints is not original
            assert module.classify_constraints.__wrapped__ is original
        assert dirackit.poly.Polynomial.__mul__.__wrapped__ is before[
            (repr(dirackit.poly.Polynomial), "__mul__")]
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_spans_nest_within_their_request():
    t = traced_analyze()
    ids = {span[1] for span in t.spans}
    (request,) = t.requests
    for req, span_id, parent, name, start, end in t.spans:
        assert req == request and start <= end
        assert parent is None or parent in ids
    sample = [s for s in t.spans if s[3] == "analysis.sample"]
    classify = {s[1] for s in t.spans if s[3] == "analysis.classify"}
    assert sample and all(s[2] in classify for s in sample)


def test_checker_accepts_good_and_counts_wrong_reports():
    inp = workloads._shipped_input(SPHERE)
    code, text = workloads.analyze(str(SPHERE))
    good = checks.Checker(workloads.ROOT / "src/dirackit/report_schema.json", seed=0)
    good.add_report(inp, code, text)
    good.add_report(inp, code, text)
    good.finish()
    assert (good.attempted, good.failed) == (2, 0)

    report = json.loads(text)
    report["trace_identity"]["value"] = "(3*x1^2 + 2*x2^2 + 2*x3^2)/(x1^2 + x2^2 + x3^2)"
    bad = checks.Checker(workloads.ROOT / "src/dirackit/report_schema.json", seed=0)
    bad.add_report(inp, code, json.dumps(report, indent=2))
    bad.add_report(inp, code, json.dumps(report, indent=2))
    bad.add_report(inp, 1, "")
    bad.finish()
    assert (bad.attempted, bad.failed) == (3, 3)


def test_printed_expressions_evaluate_exactly():
    from fractions import Fraction
    point = {"x1": Fraction(1, 2), "p1": Fraction(-3), "r": Fraction(2)}
    assert checks.eval_printed("-3/2*x1^2*p1 + r - 1", point) == Fraction(17, 8)
    assert checks.eval_printed("(x1 - p1)/(r^2)", point) == Fraction(7, 8)
