"""Command-line front end.

Exit codes: 0 success, 2 input error, 3 not second class, 4 sampling
failure, 5 non-polynomial closure input, 1 internal error.  Standard
output carries only the report; all diagnostics go to stderr so JSON
can be piped directly.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from . import __version__
from .analysis import classify_constraints, exact_rank, trace_identity
from .brackets import bracket_table, make_context
from .closure import closure_analysis, finite_dim_obstruction, lemma_verdict, trace_verdict
from .errors import (
    DiracKitError,
    NoOnShellPointError,
    NonPolynomialInputError,
    NotSecondClassError,
)
from .parser import parse_expression
from .sysfile import SystemSpec, load_system

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NOT_SECOND_CLASS = 3
EXIT_SAMPLING = 4
EXIT_NON_POLYNOMIAL = 5

# Reported timing resolution.  Coarse on purpose: reports must be
# byte-identical across runs for fixed input and seed; precise timings
# go to stderr.
TIMING_RESOLUTION_MS = 100


class _Timings:
    """Wall time per stage, and the part of it spent in the cyclic garbage
    collector.  A full collection costs in proportion to everything the
    process holds, not to the stage's own work (tens of milliseconds in a
    process that has imported sympy and numpy), so the reported timing
    leaves it out: otherwise a collection that happens to fall inside a
    stage could move it across a rounding boundary."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.gc: dict[str, float] = {}

    @contextmanager
    def time(self, stage: str):
        paused = [0.0, 0.0]  # total seconds in collections, start of the current one

        def on_collect(phase, info):
            if phase == "start":
                paused[1] = time.perf_counter()
            else:
                paused[0] += time.perf_counter() - paused[1]

        gc.callbacks.append(on_collect)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.raw[stage] = (time.perf_counter() - t0) * 1000.0
            gc.callbacks.remove(on_collect)
            self.gc[stage] = paused[0] * 1000.0

    def rounded(self) -> dict[str, int]:
        return {k: int(round((v - self.gc[k]) / TIMING_RESOLUTION_MS)) * TIMING_RESOLUTION_MS
                for k, v in self.raw.items()}

    def report_stderr(self):
        for stage, ms in self.raw.items():
            print(f"[timing] {stage}: {ms:.2f} ms", file=sys.stderr)


def _classification_dict(c) -> dict:
    return {
        "verdict": c.verdict,
        "symbolic_det_nonzero": c.symbolic_det_nonzero,
        "on_shell_rank": c.on_shell_rank,
        "dof_pairs": c.dof_pairs,
    }


def _trace_dict(t) -> dict:
    return {"value": t.value_text, "expected": t.expected, "holds": t.holds}


def _residual_key(key, names) -> str:
    a, b = key  # b is "H" for a bracket with the Hamiltonian
    return f"{names[a]},{b if b == 'H' else names[b]}"


def _printed(v):
    """Nested tuples of coefficients as lists of strings; None stays JSON null."""
    if v is None:
        return None
    return [_printed(x) for x in v] if isinstance(v, tuple) else str(v)


def _closure_dict(report) -> dict:
    out = {
        "mode": report.mode,
        "closed": report.closed,
        "names": list(report.names),
        "c": _printed(report.c),
        "z": _printed(report.z),
        "h": _printed(report.h),
        "h_const": _printed(report.h_const),
        "residuals": {k: str(v) for k, v in sorted(
            ((_residual_key(key, report.names), expr)
             for key, expr in report.residuals.items()))},
    }
    if report.notes:
        out["notes"] = list(report.notes)
    return out


def _verdict_dict(v) -> dict:
    witness = v.witness
    if witness is not None:
        witness = {k: (str(val) if isinstance(val, Fraction)
                       else list(val) if isinstance(val, tuple) else val)
                   for k, val in witness.items()}
    return {"kind": v.kind, "witness": witness, "explanation": v.explanation}


def _combination(coeffs, constant: str, names) -> str:
    """The printed c1*g1 + ... + z, its zero terms left out; "0" if all are."""
    terms = [f"{c}*{name}" for c, name in zip(coeffs, names) if c != "0"]
    if constant != "0":
        terms.append(constant)
    return " + ".join(terms) or "0"


def emit_report(report: dict, fmt: str):
    """Write the report to stdout; JSON is byte-stable for fixed inputs."""
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2))
        sys.stdout.write("\n")
        return
    lines = [f"dirackit report (version {report['version']})",
             f"input_digest: {report['input_digest']}"]
    system = report["system"]
    params = ",".join(system["parameters"]) or "-"
    lines.append(f"system: n={system['n']} m={system['m']} parameters={params}")
    if "classification" in report:
        c = report["classification"]
        lines.append(
            f"classification: {c['verdict']} "
            f"(symbolic_det_nonzero={str(c['symbolic_det_nonzero']).lower()}, "
            f"on_shell_rank={c['on_shell_rank']}, dof_pairs={c['dof_pairs']})")
    if "trace_identity" in report:
        t = report["trace_identity"]
        lines.append(f"trace_identity: value={t['value']} expected={t['expected']} "
                     f"holds={str(t['holds']).lower()}")
    if "closure" in report and report["closure"] is not None:
        cl = report["closure"]
        lines.append(f"closure: mode={cl['mode']} closed={str(cl['closed']).lower()}")
        names = cl["names"]
        k = len(names)
        for a in range(k):
            for b in range(a + 1, k):
                if cl["z"][a][b] is not None:
                    rhs = _combination(cl["c"][a][b], cl["z"][a][b], names)
                    lines.append(f"  {{{names[a]},{names[b]}}} = {rhs}")
        for key, expr in cl["residuals"].items():
            lines.append(f"  residual {{{key}}} = {expr}")
        for a, row in enumerate(cl["h"] or ()):
            if row is not None:
                lines.append(f"  {{{names[a]},H}} = {_combination(row, cl['h_const'][a], names)}")
    if "verdict" in report and report["verdict"] is not None:
        v = report["verdict"]
        lines.append(f"verdict: {v['kind']}")
        if v["witness"]:
            lines.append(f"witness: {json.dumps(v['witness'])}")
        lines.append(f"explanation: {v['explanation']}")
    timings = report.get("timings_ms", {})
    lines.append("timings_ms: " + " ".join(f"{k}={v}" for k, v in timings.items()))
    sys.stdout.write("\n".join(lines) + "\n")


def _base_report(spec: SystemSpec) -> dict:
    return {
        "version": __version__,
        "input_digest": spec.input_digest,
        "system": {
            "n": spec.ps.n,
            "m": len(spec.constraints) // 2,
            "parameters": list(spec.ps.parameters),
        },
    }


def _space(spec: SystemSpec, mode: str):
    """The space whose brackets --mode names: the phase space, or a Dirac
    context, refused when `exact_rank` shows Delta of rank below 2m on
    the shell (None, undecided, is not below); no point is drawn."""
    if mode != "dirac":
        return spec.ps
    context = make_context(spec.ps, spec.constraints)
    if exact_rank(context, context.delta_inv, spec.sampler) in range(2 * context.m):
        raise NotSecondClassError("constraint bracket matrix is singular on the shell")
    return context


def run_report(spec: SystemSpec, args) -> int:
    """The one driver of the report commands analyze, classify and closure.

    analyze runs classify -> trace -> closure -> verdict, each stage once,
    passing each result on; classify stops after its first stage; closure
    runs only the closure stage, in the space its --mode names.
    """
    command = args.command
    if command == "closure" and spec.primaries is None:
        print("error: the system file declares no [primaries]", file=sys.stderr)
        return EXIT_INPUT
    timings = _Timings()
    report = _base_report(spec)
    if command == "closure":
        space = _space(spec, args.mode)
    else:
        with timings.time("classify"):
            classification = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        report["classification"] = _classification_dict(classification)
    if command == "analyze":
        if classification.verdict != "second_class":
            print("error: constraint set is not second class", file=sys.stderr)
            return EXIT_NOT_SECOND_CLASS
        space = classification.context
        with timings.time("trace"):
            trace = trace_identity(space)
        report["trace_identity"] = _trace_dict(trace)
    if command != "classify" and spec.primaries is not None:
        with timings.time("closure"):
            closure = closure_analysis(spec.primaries, space, spec.on_shell_rules)
        report["closure"] = _closure_dict(closure)
    if command == "analyze":
        with timings.time("verdict"):
            report["verdict"] = _verdict_dict(trace_verdict(classification, trace))
    elif command == "closure" and closure.closed:
        report["verdict"] = _verdict_dict(finite_dim_obstruction(closure))
    elif command == "closure":
        report["verdict"] = None
        print("note: algebra is not closed; no obstruction verdict", file=sys.stderr)
    report["timings_ms"] = timings.rounded()
    timings.report_stderr()
    emit_report(report, args.format)
    return EXIT_OK


def cmd_bracket(spec: SystemSpec, f_text: str, g_text: str, mode: str) -> int:
    items = [parse_expression(f_text, spec.ps), parse_expression(g_text, spec.ps)]
    sys.stdout.write(str(bracket_table(items, _space(spec, mode))[0][1]) + "\n")
    return EXIT_OK


def cmd_trace(spec: SystemSpec) -> int:
    t = trace_identity(_space(spec, "dirac"))
    sys.stdout.write(
        f"value={t.value_text} expected={t.expected} holds={str(t.holds).lower()}\n")
    return EXIT_OK


def cmd_verdict(spec: SystemSpec) -> int:
    verdict = lemma_verdict(spec.ps, spec.constraints, spec.sampler)
    sys.stdout.write(f"{verdict.kind}\n")
    if verdict.witness:
        sys.stdout.write(f"witness: {json.dumps(_verdict_dict(verdict)['witness'])}\n")
    sys.stdout.write(f"{verdict.explanation}\n")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirackit",
        description="Exact Poisson/Dirac bracket analysis of constrained "
                    "Hamiltonian systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, with_format=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="system definition file")
        if with_format:
            p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add("analyze", "full report: classification, trace identity, closure, verdict")
    p = add("bracket", "compute one bracket", with_format=False)
    p.add_argument("--f", required=True, help="first expression")
    p.add_argument("--g", required=True, help="second expression")
    p.add_argument("--mode", choices=("poisson", "dirac"), default="poisson")
    add("classify", "constraint classification only")
    add("trace", "trace identity only", with_format=False)
    p = add("closure", "primary-quantity closure analysis")
    p.add_argument("--mode", choices=("poisson", "dirac"), default="dirac")
    add("verdict", "finite-dimensionality verdict only", with_format=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            spec = load_system(args.file)
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
            return EXIT_INPUT

        if args.command in ("analyze", "classify", "closure"):
            return run_report(spec, args)
        if args.command == "bracket":
            return cmd_bracket(spec, args.f, args.g, args.mode)
        if args.command == "trace":
            return cmd_trace(spec)
        return cmd_verdict(spec)
    except NotSecondClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_SECOND_CLASS
    except NoOnShellPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except NonPolynomialInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: add [onshell] rules so brackets reduce to polynomials",
              file=sys.stderr)
        return EXIT_NON_POLYNOMIAL
    except DiracKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
