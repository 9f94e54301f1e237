"""Correctness checks of the benchmark's outputs.

Every output a pass produces is checked and counted.  The first output
of each input gets the full check below; every later output of the same
input must equal it byte for byte (reports with `timings_ms` dropped,
because that field rounds to 100 ms and flips between runs).  An output
that fails counts as failed, and so does every repeat of it.

Full checks of an `analyze --format json` report:

- the exit code is the expected one (3 with no report for a constraint
  set that is not second class, 0 otherwise);
- the report validates against `src/dirackit/report_schema.json`;
- n and m are the generated ones and the set is second class;
- `trace_identity.value`, parsed here and evaluated exactly at seeded
  rational points, equals n - m;
- the verdict kind follows from (n, m);
- for sphere towers, closure is so(3) within each sphere (c = eps_abc),
  0 across spheres, and every central charge is 0.

Full checks of a Jacobi cyclic sum: it is exactly zero, and the three
printed outer brackets, evaluated here at sampled points of the sphere,
add up to zero within 1e-8 relative to their size.

Expressions are evaluated from their printed form by this module's own
evaluator, not by dirackit.  Printed report values are not pinned:
later changes may legitimately print the same value differently.
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction

import jsonschema

JACOBI_TOLERANCE = 1e-8
TRACE_POINTS = 3
JACOBI_POINTS = 4


def normalize_report(text: str) -> str:
    """The report with `timings_ms` dropped; '' when there is no report."""
    if not text:
        return ""
    report = json.loads(text)
    report.pop("timings_ms", None)
    return json.dumps(report, indent=2)


# -- evaluator for printed expressions -------------------------------------

def _eval_polynomial(text: str, values: dict):
    """Value of a printed polynomial: terms joined by ' + '/' - ', each a
    '*'-product of a rational magnitude and name^exponent factors."""
    total = 0
    sign = 1
    for token in text.split():
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -sign, token[1:]
        term = 1
        for factor in token.split("*"):
            name, _, exponent = factor.partition("^")
            base = values[name] if name in values else Fraction(name)
            term *= base ** int(exponent) if exponent else base
        total += sign * term
        sign = 1
    return total


def eval_printed(text: str, values: dict):
    """Value of a printed expression, "poly" or "(poly)/(poly)"."""
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return _eval_polynomial(num, values) / _eval_polynomial(den, values)
    return _eval_polynomial(text, values)


def _levi_civita(a: int, b: int, c: int) -> int:
    return (a - b) * (b - c) * (c - a) // 2


# -- the checker ------------------------------------------------------------

class Checker:
    def __init__(self, schema_path, seed: int):
        with open(schema_path, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self._first: dict[str, list] = {}  # label -> [normalized, check, count]

    def _add(self, label: str, normalized: str, full_check) -> None:
        self.attempted += 1
        first = self._first.get(label)
        if first is None:
            self._first[label] = [normalized, full_check, 1]
        elif first[0] == normalized:
            first[2] += 1
        else:
            self._fail(label, ["output differs from the first run of the same input"], 1)

    def _fail(self, label: str, problems: list[str], count: int) -> None:
        self.failed += count
        for problem in problems:
            print(f"check failed: {label}: {problem}", file=sys.stderr)

    def add_report(self, inp, code: int, text: str) -> int:
        """Record one analyze output; returns its size in bytes."""
        normalized = normalize_report(text)
        self._add(inp.label, f"exit={code}\n{normalized}",
                  lambda: self.check_report(inp, code, text))
        return len(normalized.encode())

    def add_jacobi(self, label: str, inner: list[str], outer: list[str],
                   is_zero: bool) -> int:
        """Record one Jacobi triple; returns the size of its printed brackets."""
        self._add(label, "\n".join(inner + outer) + f"\nzero={is_zero}",
                  lambda: self.check_jacobi(outer, is_zero))
        return sum(len(s.encode()) for s in inner + outer)

    def finish(self) -> None:
        """Run the full check of each input's first output."""
        for label, (_, full_check, count) in self._first.items():
            try:
                problems = full_check()
            except Exception as exc:  # a malformed output must count, not stop the run
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(label, problems, count)
        self._first.clear()

    # -- full checks --------------------------------------------------------

    def check_report(self, inp, code: int, text: str) -> list[str]:
        if code != inp.expect_exit:
            return [f"exit code {code}, expected {inp.expect_exit}"]
        if code != 0:
            return ["a report was printed"] if text else []
        report = json.loads(text)
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if problems:
            return problems
        n, m = inp.n, inp.m
        if (report["system"]["n"], report["system"]["m"]) != (n, m):
            problems.append(f"system is {report['system']}, expected n={n} m={m}")
        classification = report["classification"]
        if classification["verdict"] != "second_class" or classification["dof_pairs"] != n - m:
            problems.append(f"classification {classification}")
        trace = report["trace_identity"]
        if trace["expected"] != n - m or trace["holds"] is not True:
            problems.append(f"trace identity {trace['expected']} holds={trace['holds']}")
        problems += self._check_trace_value(trace["value"], inp)
        kind = "trivial_system" if m == n else "infinite_dimensional"
        if report["verdict"]["kind"] != kind:
            problems.append(f"verdict {report['verdict']['kind']}, expected {kind}")
        if inp.spheres:
            problems += self._check_tower_closure(report.get("closure"))
        return problems

    def _check_trace_value(self, value: str, inp) -> list[str]:
        names = ([f"x{i}" for i in range(1, inp.n + 1)]
                 + [f"p{i}" for i in range(1, inp.n + 1)] + list(inp.parameters))
        checked = 0
        for _ in range(10 * TRACE_POINTS):
            point = {s: Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 5))
                     for s in names}
            try:
                got = eval_printed(value, point)
            except ZeroDivisionError:
                continue
            if got != inp.n - inp.m:
                return [f"trace value is {got} at {point}, expected {inp.n - inp.m}"]
            checked += 1
            if checked == TRACE_POINTS:
                return []
        return ["trace value has a pole at every sampled point"]

    def _check_tower_closure(self, closure) -> list[str]:
        if not closure or not closure["closed"]:
            return ["closure missing or not closed"]
        problems = []
        # names are L<a>_s<sphere>
        index = [(int(name[1]), int(name.split("_s")[1])) for name in closure["names"]]
        for i, (a, s) in enumerate(index):
            for j, (b, t) in enumerate(index):
                if Fraction(closure["z"][i][j]) != 0:
                    problems.append(f"central charge z[{i}][{j}] = {closure['z'][i][j]}")
                for k, (c, u) in enumerate(index):
                    want = _levi_civita(a, b, c) if s == t == u else 0
                    if Fraction(closure["c"][i][j][k]) != want:
                        problems.append(f"c[{i}][{j}][{k}] = {closure['c'][i][j][k]}, "
                                        f"expected {want}")
        return problems

    def check_jacobi(self, outer: list[str], is_zero: bool) -> list[str]:
        problems = [] if is_zero else ["Jacobi sum is not exactly zero"]
        for _ in range(JACOBI_POINTS):
            point = self._sphere_point()
            terms = [eval_printed(text, point) for text in outer]
            scale = max(1.0, sum(abs(t) for t in terms))
            if abs(sum(terms)) > JACOBI_TOLERANCE * scale:
                problems.append(f"Jacobi sum {sum(terms)!r} at {point}")
        return problems

    def _sphere_point(self) -> dict:
        """A point with |x| = r = 1 and p tangent to the sphere."""
        x = [self.rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(v * v for v in x))
        x = [v / norm for v in x]
        p = [self.rng.gauss(0.0, 1.0) for _ in range(3)]
        radial = sum(a * b for a, b in zip(p, x))
        p = [a - radial * b for a, b in zip(p, x)]
        point = {f"x{i}": v for i, v in enumerate(x, 1)}
        point.update({f"p{i}": v for i, v in enumerate(p, 1)})
        point["r"] = 1.0
        return point
