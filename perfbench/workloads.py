"""Inputs and passes of the dirackit benchmark's workloads.

Every input is made from the benchmark's seed during set-up: the three
file workloads write `.system` files that the CLI then analyzes, and
`nested_dirac` builds its expressions through the library API.  The
program sees only these generated inputs.

Why each workload exists:

- `shipped`: every file in `systems/`, the real interactive use.  The
  expressions are tiny, so the sampler, parser, file loader, report
  emission and import dominate and the kernel barely works.
- `sphere_tower`: k = 1..4 decoupled spheres with per-sphere angular
  momenta as primaries.  Trace values swell from 3 to 3000 terms over
  6k + 1 symbols; closure is about half the time and the matrix layer
  is nearly idle.
- `linear_mix`: random invertible integer mixes of m pairs, up to
  m = 10, with n = m (trivial system) and n = m + 2.  Everything is
  linear and nothing swells, so matrix inversion and per-operation
  kernel overhead dominate.
- `nested_dirac`: Jacobi cyclic sums of Dirac brackets on the sphere,
  the only brackets of brackets.  Few symbols but denominators of degree
  ~30; adding the three outer brackets is most of the time.  The
  supports are fixed because random supports made the cost of one
  triple range from 0 to ~8 s with the seed.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from dirackit import brackets, cli, parser
from dirackit.phase_space import PhaseSpace

ROOT = Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "systems"

# The shipped file whose constraint set is not second class: exit code 3
# with no report is its correct output.
SHIPPED_EXIT = {"degenerate.system": 3}
# The shipped file the cold-CLI runs use.
SHIPPED_PROBE = "sphere.system"

TOWER_SIZES = (1, 2, 3, 4)
# (m, n) of the linear mixes in one pass.
MIX_SIZES = ((2, 2), (2, 4), (6, 6), (6, 8), (10, 10))
MIX_ENTRY = 3  # mix matrix entries are integers in [-MIX_ENTRY, MIX_ENTRY]
# Jacobi triples per pass.  Each costs about 2 s; two per pass average
# out part of the cost difference between seeded coefficients.
NESTED_TRIPLES = 2
# Fixed supports of f, g, h in the Jacobi sums; only the coefficients vary.
NESTED_SUPPORTS = (("p1*p2", "1"), ("p1*p3", "p2"), ("x2*p3", "x1"))


@dataclass(frozen=True)
class FileInput:
    """One `.system` file and what its report must say."""

    label: str
    path: str
    n: int
    m: int
    parameters: tuple[str, ...] = ()
    expect_exit: int = 0
    spheres: int = 0  # > 0: closure must be so(3) within each sphere


@dataclass(frozen=True)
class Triple:
    label: str
    f: object
    g: object
    h: object


def analyze(path: str) -> tuple[int, str]:
    """`dirackit analyze <path> --format json` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["analyze", path, "--format", "json"])
    return code, out.getvalue()


class FileWorkload:
    """Analyzes each input file once per pass, the way the CLI does."""

    def __init__(self, inputs: list[FileInput], probe: FileInput):
        self.inputs = inputs
        self.probe = probe  # smallest input; used for warm-up and cold-CLI runs

    def warm_up(self) -> None:
        analyze(self.probe.path)

    def run_pass(self, request) -> list:
        outputs = []
        for inp in self.inputs:
            with request(inp.label):
                code, text = analyze(inp.path)
            outputs.append((inp, code, text))
        return outputs

    def record(self, outputs, checker) -> int:
        return sum(checker.add_report(inp, code, text) for inp, code, text in outputs)


class NestedWorkload:
    """Jacobi cyclic sums {f,{g,h}_D}_D + cyclic on the sphere."""

    def __init__(self, ctx, triples: list[Triple], probe: FileInput):
        self.ctx = ctx
        self.triples = triples
        self.probe = probe  # the same sphere as a file, for cold-CLI runs

    def warm_up(self) -> None:
        t = self.triples[0]
        brackets.dirac_bracket(t.f, t.g, self.ctx)

    def run_pass(self, request) -> list:
        ctx = self.ctx
        outputs = []
        for t in self.triples:
            with request(t.label):
                inner = [brackets.dirac_bracket(t.g, t.h, ctx),
                         brackets.dirac_bracket(t.h, t.f, ctx),
                         brackets.dirac_bracket(t.f, t.g, ctx)]
                outer = [brackets.dirac_bracket(t.f, inner[0], ctx),
                         brackets.dirac_bracket(t.g, inner[1], ctx),
                         brackets.dirac_bracket(t.h, inner[2], ctx)]
                is_zero = (outer[0] + outer[1] + outer[2]).is_zero
            outputs.append((t, inner, outer, is_zero))
        return outputs

    def record(self, outputs, checker) -> int:
        return sum(checker.add_jacobi(t.label, [str(e) for e in inner],
                                      [str(e) for e in outer], is_zero)
                   for t, inner, outer, is_zero in outputs)


# -- input generation ----------------------------------------------------

def _shipped_input(path: Path) -> FileInput:
    """Expected n, m and parameters read from the file's text."""
    n, parameters, constraints, section = None, (), 0, None
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]").strip()
        elif line and section == "system" and "=" in line:
            key, _, value = (s.strip() for s in line.partition("="))
            if key == "n":
                n = int(value)
            elif key == "parameters":
                parameters = tuple(value.replace(",", " ").split())
        elif line and section == "constraints":
            constraints += 1
    return FileInput(label=path.name, path=str(path), n=n, m=constraints // 2,
                     parameters=parameters,
                     expect_exit=SHIPPED_EXIT.get(path.name, 0))


def tower_text(k: int, sampler_seed: int) -> str:
    """k decoupled spheres of radius r; L_a of each sphere as primaries."""
    n = 3 * k
    lines = ["[system]", f"n = {n}", "parameters = r", "bind r = 1.0", "", "[constraints]"]
    for s in range(1, k + 1):
        x = [f"x{3 * s - 3 + i}" for i in (1, 2, 3)]
        p = [f"p{3 * s - 3 + i}" for i in (1, 2, 3)]
        lines.append(f"radius{s} = " + " + ".join(f"{v}^2" for v in x) + " - r^2")
        lines.append(f"tangent{s} = " + " + ".join(f"{a}*{b}" for a, b in zip(p, x)))
    lines += ["", "[hamiltonian]",
              "H = (" + " + ".join(f"p{i}^2" for i in range(1, n + 1)) + ")/2",
              "", "[primaries]"]
    for s in range(1, k + 1):
        x = [f"x{3 * s - 3 + i}" for i in (1, 2, 3)]
        p = [f"p{3 * s - 3 + i}" for i in (1, 2, 3)]
        for a in range(3):
            b, c = (a + 1) % 3, (a + 2) % 3
            lines.append(f"L{a + 1}_s{s} = {x[b]}*{p[c]} - {x[c]}*{p[b]}")
    lines += ["", "[onshell]"] + [f"use radius{s}" for s in range(1, k + 1)]
    lines += ["", "[sampler]", f"seed = {sampler_seed}", "points = 16"]
    return "\n".join(lines) + "\n"


def _invertible(rows: list[list[int]]) -> bool:
    a = [[Fraction(v) for v in row] for row in rows]
    size = len(a)
    for c in range(size):
        piv = next((r for r in range(c, size) if a[r][c] != 0), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        for r in range(c + 1, size):
            f = a[r][c] / a[c][c]
            a[r] = [u - f * v for u, v in zip(a[r], a[c])]
    return True


def _linear_form(coeffs, names) -> str:
    text = ""
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text


def mix_text(n: int, m: int, rng: random.Random) -> str:
    """2m constraints: a random invertible integer mix of the first m pairs."""
    base = [f"x{i}" for i in range(1, m + 1)] + [f"p{i}" for i in range(1, m + 1)]
    while True:
        rows = [[rng.randint(-MIX_ENTRY, MIX_ENTRY) for _ in base] for _ in base]
        if _invertible(rows):
            break
    lines = ["[system]", f"n = {n}", "", "[constraints]"]
    lines += [f"chi{i} = {_linear_form(row, base)}" for i, row in enumerate(rows, 1)]
    lines += ["", "[sampler]", f"seed = {rng.randrange(2**31)}"]
    return "\n".join(lines) + "\n"


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _tower_input(workdir: Path, k: int, rng: random.Random) -> FileInput:
    label = f"tower_k{k}.system"
    path = _write(workdir, label, tower_text(k, rng.randrange(2**31)))
    return FileInput(label=label, path=path, n=3 * k, m=k, parameters=("r",), spheres=k)


def _nonzero_fraction(rng: random.Random) -> Fraction:
    while True:
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if value:
            return value


def build(name: str, seed: int, workdir: Path):
    """Generate the workload's inputs from the seed into workdir."""
    rng = random.Random(seed)
    if name == "shipped":
        inputs = [_shipped_input(p) for p in sorted(SYSTEMS.glob("*.system"))]
        probe = next(inp for inp in inputs if inp.label == SHIPPED_PROBE)
        return FileWorkload(inputs, probe)
    if name == "sphere_tower":
        inputs = [_tower_input(workdir, k, rng) for k in TOWER_SIZES]
        return FileWorkload(inputs, inputs[0])
    if name == "linear_mix":
        inputs = []
        for m, n in MIX_SIZES:
            label = f"mix_m{m}_n{n}.system"
            path = _write(workdir, label, mix_text(n, m, rng))
            inputs.append(FileInput(label=label, path=path, n=n, m=m))
        return FileWorkload(inputs, inputs[0])
    if name == "nested_dirac":
        ps = PhaseSpace(3, parameters=("r",))
        ctx = brackets.make_context(ps, [
            parser.parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
            parser.parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])
        triples = []
        for i in range(NESTED_TRIPLES):
            f, g, h = (parser.parse_expression(
                " + ".join(f"({_nonzero_fraction(rng)})*{mono}" for mono in support), ps)
                for support in NESTED_SUPPORTS)
            triples.append(Triple(f"jacobi_{i}", f, g, h))
        probe = _tower_input(workdir, 1, rng)
        return NestedWorkload(ctx, triples, probe)
    raise ValueError(f"unknown workload {name!r}")
