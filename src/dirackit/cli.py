"""Command-line front end.

A command returns, for exit 0, or raises a DiracKitError, which `main`
prints once as `error: ...` and maps to an exit code by `EXIT_CODES`:
3 not second class (Delta symbolically singular, or singular on the
shell with its rank r < 2m), 4 no on-shell point, 5 non-polynomial
closure input, 2 any other input error.  A reader that closes stdout
early gets 141 (128 + SIGPIPE) and no message; any other failure to
write the report, such as a full disk, is 2 with `error: cannot write
the report: ...`; anything else is 1, an internal error.  Standard
output carries only the report; all diagnostics go to stderr so JSON
can be piped directly.  A diagnostic that stderr cannot take is
dropped and leaves the exit code as it is.  The JSON report is written
in one walk (`_json`), byte-identical to `json.dumps(report, indent=2)`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from . import __version__
from .analysis import classify_constraints, exact_rank, trace_identity
from .brackets import bracket_table, make_context, second_class
from .closure import closure_analysis, finite_dim_obstruction, lemma_verdict, trace_verdict
from .errors import (
    DiracKitError,
    NoOnShellPointError,
    NonPolynomialInputError,
    NotSecondClassError,
    ValidationError,
)
from .parser import parse_expression
from .sysfile import SystemSpec, load_system

# An error's exit code: that of the first type, in this order, it is an instance of.
EXIT_CODES = ((NotSecondClassError, 3), (NoOnShellPointError, 4),
              (NonPolynomialInputError, 5), (DiracKitError, 2))

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


def _to_devnull(stream) -> None:
    """Point stream's descriptor at devnull, so that what it still buffers
    is dropped and the flush at exit does not fail again."""
    with suppress(OSError, ValueError):  # stream has no descriptor
        fd = stream.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _note(line: str) -> None:
    """Write one diagnostic line to stderr, best-effort: once stderr
    cannot take one (a full disk), it and the later ones are dropped, and
    the exit code stays the command's."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


def _classification_dict(c) -> dict:
    return {name: getattr(c, name)
            for name in ("verdict", "symbolic_det_nonzero", "on_shell_rank", "dof_pairs")}


def _trace_dict(t) -> dict:
    return {"value": str(t.value), "expected": t.expected, "holds": t.holds}


def _residual_key(key, names) -> str:
    a, b = key  # b is "H" for a bracket with the Hamiltonian
    return f"{names[a]},{b if b == 'H' else names[b]}"


def _closure_dict(report) -> dict:
    out = {name: getattr(report, name)
           for name in ("mode", "closed", "names", "c", "z", "h", "h_const")}
    out["residuals"] = {k: str(v) for k, v in sorted(
        (_residual_key(key, report.names), expr) for key, expr in report.residuals.items())}
    if report.notes:
        out["notes"] = report.notes
    return out


def _verdict_dict(v) -> dict:
    return {"kind": v.kind, "witness": v.witness, "explanation": v.explanation}


def _combination(coeffs, constant: Fraction, names) -> str:
    """The printed c1*g1 + ... + z, its zero terms left out; "0" if all are."""
    terms = [f"{c}*{name}" for c, name in zip(coeffs, names) if c]
    if constant:
        terms.append(str(constant))
    return " + ".join(terms) or "0"


def _json(v, indent: str, written: dict) -> str:
    """v as json.dumps(v, indent=2) writes it at this indent, a Fraction as
    its quoted str.  A container met again at this indent, such as c's zero
    row, reuses its text in written, keyed by id: the report keeps it alive."""
    if isinstance(v, (str, Fraction)):
        return encode_basestring_ascii(str(v))
    if type(v) is int:
        return repr(v)
    if not v or not isinstance(v, (dict, list, tuple)):
        return json.dumps(v)  # another scalar, or an empty container: "{}" or "[]"
    key = (id(v), indent)
    if key not in written:
        inner = indent + "  "
        items = ([f"{encode_basestring_ascii(k)}: {_json(x, inner, written)}"
                  for k, x in v.items()] if isinstance(v, dict)
                 else [_json(x, inner, written) for x in v])
        ends = "{}" if isinstance(v, dict) else "[]"
        written[key] = f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"
    return written[key]


def emit_report(report: dict, fmt: str):
    """Write the report to stdout; JSON is byte-stable for fixed inputs."""
    if fmt == "json":
        sys.stdout.write(_json(report, "", {}) + "\n")
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
            lines.append(f"witness: {json.dumps(v['witness'], default=str)}")
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
    context that `second_class` refuses when Delta is symbolically
    singular, then when `exact_rank` ranks it below 2m; no point is drawn."""
    if mode != "dirac":
        return spec.ps
    context = make_context(spec.ps, spec.constraints)
    return second_class(context, exact_rank(context, spec.sampler))


def run_report(spec: SystemSpec, args):
    """The one driver of the report commands analyze, classify and closure.

    analyze runs classify -> trace -> closure -> verdict, each stage once,
    passing each result on; classify stops after its first stage; closure
    runs only the closure stage, in the space its --mode names.
    """
    command = args.command
    if command == "closure" and spec.primaries is None:
        raise ValidationError("the system file declares no [primaries]")
    timings = _Timings()
    report = _base_report(spec)
    if command == "closure":
        space = _space(spec, args.mode)
    else:
        with timings.time("classify"):
            classification = classify_constraints(spec.ps, spec.constraints, spec.sampler)
        report["classification"] = _classification_dict(classification)
    if command == "analyze":
        space = second_class(classification.context, classification.on_shell_rank)
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
        _note("note: algebra is not closed; no obstruction verdict")
    report["timings_ms"] = timings.rounded()
    for stage, ms in timings.raw.items():
        _note(f"[timing] {stage}: {ms:.2f} ms")
    emit_report(report, args.format)


def cmd_bracket(spec: SystemSpec, args):
    items = [parse_expression(args.f, spec.ps), parse_expression(args.g, spec.ps)]
    sys.stdout.write(str(bracket_table(items, _space(spec, args.mode))[0, 1]) + "\n")


def cmd_trace(spec: SystemSpec, args):
    t = trace_identity(_space(spec, "dirac"))
    sys.stdout.write(
        f"value={t.value} expected={t.expected} holds={str(t.holds).lower()}\n")


def cmd_verdict(spec: SystemSpec, args):
    verdict = lemma_verdict(spec.ps, spec.constraints, spec.sampler)
    sys.stdout.write(f"{verdict.kind}\n")
    if verdict.witness:
        sys.stdout.write(f"witness: {json.dumps(verdict.witness, default=str)}\n")
    sys.stdout.write(f"{verdict.explanation}\n")


COMMANDS = {"analyze": run_report, "classify": run_report, "closure": run_report,
            "bracket": cmd_bracket, "trace": cmd_trace, "verdict": cmd_verdict}


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
            raise ValidationError(f"cannot read {args.file}: {exc}") from exc
        COMMANDS[args.command](spec, args)
        sys.stdout.flush()  # so that a reader gone early raises here
    except DiracKitError as exc:
        _note(f"error: {exc}")
        if isinstance(exc, NonPolynomialInputError):
            _note("hint: add [onshell] rules so brackets reduce to polynomials")
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    except OSError as exc:  # after loading, stdout is the only file written
        _to_devnull(sys.stdout)
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE
        _note(f"error: cannot write the report: {exc}")
        return 2
    except Exception as exc:  # pragma: no cover
        _note(f"internal error: {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
