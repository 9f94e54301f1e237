"""Golden CLI outputs: every command on every shipped system, and
generated families.

The goldens in `golden/cli.json` pin stdout, exit code and the stderr
lines other than `[timing]` for each case.  `timings_ms` is the only
part of a report that may change between runs, so it is stripped from
both the golden and the fresh output before they are compared.

`golden/families.json` pins the exit code and the sha256 of stdout of
`analyze` (and `closure --mode poisson` on the towers) on sphere towers
and seeded linear mixes, and the six printed Dirac brackets of a sphere
Jacobi triple.  Dirac brackets and trace values print reduced (every
factor of the context's denominator table that divides the numerator is
cancelled), but the terms of a report are many, so a digest pins them.
It also pins two closures that no shipped system reaches: one that is
not closed, and one that stops at a non-polynomial bracket; and
`analyze` and `classify` on two dependent constraint sets (exit 3, on-shell
rank 0).  A case with stderr lines other than `[timing]` pins those as well.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py

which prints the file and name of every pinned case it adds, rewrites
or drops.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest

from dirackit import PhaseSpace, dirac_bracket, make_context, parse_expression
from dirackit.cli import main

from conftest import jacobi_triple, mix_text, tower_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
FAMILIES = Path(__file__).resolve().parent / "golden" / "families.json"
SYSTEM_NAMES = sorted(p.name for p in (ROOT / "systems").glob("*.system"))
SPHERE_BRACKETS = (("x1", "p1"), ("x1*p2", "x2*p3"))
TOWER_SIZES = (1, 2, 3, 4)
MIXES = ((2, 2, 1), (2, 4, 2), (6, 8, 3), (10, 10, 4))  # (m, n, seed)
JACOBI_SEED = 1
# Not closed, with a Hamiltonian: {g1,g2} = 2*p2 and {g2,H}, {g3,H} fall
# outside the span, {g1,g3} and {g2,g3} close, {g1,H} = 1 is a constant.
OPEN_ALGEBRA = """[system]
n = 2
[constraints]
chi1 = x1
chi2 = p1
[hamiltonian]
H = p2 + x2^3
[primaries]
g1 = x2
g2 = p2^2
g3 = x2*p2
"""
# Dirac brackets on the sphere without [onshell] rules: the angular
# momenta bracket polynomially, {x1, p1} is the first rational bracket.
NONPOLYNOMIAL_CLOSURE = """[system]
n = 3
parameters = r
bind r = 1.0
[constraints]
chi1 = x1^2 + x2^2 + x3^2 - r^2
chi2 = p1*x1 + p2*x2 + p3*x3
[primaries]
L3 = x1*p2 - x2*p1
L1 = x2*p3 - x3*p2
g1 = x1
g2 = p1
"""
# Dependent constraints: Delta is zero and the Jacobian has rank 1, so the
# Newton step must be a least-squares solve that tolerates rank deficiency.
DEPENDENT_LINEAR = """[system]
n = 2
[constraints]
chi1 = x1
chi2 = 2*x1
"""
DEPENDENT_CIRCLE = """[system]
n = 2
[constraints]
chi1 = x1^2 + x2^2 - 1
chi2 = 3*x1^2 + 3*x2^2 - 3
"""


def cases() -> dict[str, list[str]]:
    """Case name -> argv."""
    out = {}
    for name in SYSTEM_NAMES:
        path = str(ROOT / "systems" / name)
        for fmt in ("text", "json"):
            out[f"analyze {name} {fmt}"] = ["analyze", path, "--format", fmt]
            out[f"classify {name} {fmt}"] = ["classify", path, "--format", fmt]
            for mode in ("dirac", "poisson"):
                out[f"closure {name} {mode} {fmt}"] = [
                    "closure", path, "--mode", mode, "--format", fmt]
        out[f"trace {name}"] = ["trace", path]
        out[f"verdict {name}"] = ["verdict", path]
    for f, g in SPHERE_BRACKETS:
        out[f"bracket sphere.system {f} {g} dirac"] = [
            "bracket", str(ROOT / "systems" / "sphere.system"),
            "--f", f, "--g", g, "--mode", "dirac"]
    return out


def _strip_timings(stdout: str, argv: list[str]) -> str:
    if "--format" in argv and argv[argv.index("--format") + 1] == "json" and stdout:
        report = json.loads(stdout)
        report.pop("timings_ms", None)
        return json.dumps(report, indent=2) + "\n"
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("timings_ms:"))


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stderr = [line for line in err.getvalue().splitlines()
              if not line.startswith("[timing]")]
    return {"exit": code, "stdout": _strip_timings(out.getvalue(), argv),
            "stderr": stderr}


def family_files() -> dict[str, str]:
    """Generated file name -> `.system` text."""
    files = {f"tower_k{k}.system": tower_text(k, sampler_seed=k) for k in TOWER_SIZES}
    for m, n, seed in MIXES:
        files[f"mix_m{m}_n{n}_s{seed}.system"] = mix_text(n, m, random.Random(seed))
    files["open_algebra.system"] = OPEN_ALGEBRA
    files["nonpolynomial_closure.system"] = NONPOLYNOMIAL_CLOSURE
    files["dependent_linear.system"] = DEPENDENT_LINEAR
    files["dependent_circle.system"] = DEPENDENT_CIRCLE
    return files


def family_cases() -> dict[str, tuple[str, list[str]]]:
    """Case name -> (generated file name, argv after the file)."""
    out = {}
    for name in family_files():
        if name.startswith(("tower", "mix", "dependent")):
            out[f"analyze {name} json"] = (name, ["--format", "json"])
        if name.startswith("dependent"):
            out[f"classify {name} json"] = (name, ["--format", "json"])
        if name.startswith("tower"):
            out[f"closure {name} poisson json"] = (
                name, ["--mode", "poisson", "--format", "json"])
    for fmt in ("json", "text"):
        out[f"closure open_algebra.system poisson {fmt}"] = (
            "open_algebra.system", ["--mode", "poisson", "--format", fmt])
    out["closure nonpolynomial_closure.system dirac text"] = (
        "nonpolynomial_closure.system", ["--mode", "dirac"])
    return out


def jacobi_brackets() -> dict[str, str]:
    """The printed inner and outer Dirac brackets of one sphere Jacobi triple."""
    ps = PhaseSpace(3, parameters=("r",))
    ctx = make_context(ps, [parse_expression("x1^2 + x2^2 + x3^2 - r^2", ps),
                            parse_expression("p1*x1 + p2*x2 + p3*x3", ps)])
    f, g, h = jacobi_triple(ps, random.Random(JACOBI_SEED))
    gh, hf, fg = dirac_bracket(g, h, ctx), dirac_bracket(h, f, ctx), dirac_bracket(f, g, ctx)
    brackets = {"{g,h}": gh, "{h,f}": hf, "{f,g}": fg,
                "{f,{g,h}}": dirac_bracket(f, gh, ctx),
                "{g,{h,f}}": dirac_bracket(g, hf, ctx),
                "{h,{f,g}}": dirac_bracket(h, fg, ctx)}
    return {f"jacobi {name}": str(e) for name, e in brackets.items()}


def _sha256(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_family_case(name: str, workdir: Path) -> dict:
    file_name, rest = family_cases()[name]
    path = workdir / file_name
    path.write_text(family_files()[file_name], encoding="utf-8")
    command = name.split()[0]
    result = run_case([command, str(path)] + rest)
    out = {"exit": result["exit"], "stdout": _sha256(result["stdout"])}
    if result["stderr"]:
        out["stderr"] = result["stderr"]
    return out


def family_digests(workdir: Path) -> dict:
    out = {name: run_family_case(name, workdir) for name in family_cases()}
    out.update((name, _sha256(text)) for name, text in jacobi_brackets().items())
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden(golden, name):
    assert run_case(cases()[name]) == golden[name]


@pytest.fixture(scope="module")
def families() -> dict:
    return json.loads(FAMILIES.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def jacobi() -> dict:
    return jacobi_brackets()


def test_families_cover_every_case(families, jacobi):
    assert sorted(families) == sorted(list(family_cases()) + list(jacobi))


@pytest.mark.parametrize("name", sorted(family_cases()))
def test_family_output_matches_golden(families, tmp_path, name):
    assert run_family_case(name, tmp_path) == families[name]


def test_jacobi_brackets_match_golden(families, jacobi):
    for name, text in jacobi.items():
        assert _sha256(text) == families[name], name


# What the digests stand for, spelled out.

def test_jacobi_outer_brackets_are_over_the_squared_radius(jacobi):
    squared = "x1^4 + 2*x1^2*x2^2 + 2*x1^2*x3^2 + x2^4 + 2*x2^2*x3^2 + x3^4"
    for name in ("{f,{g,h}}", "{g,{h,f}}", "{h,{f,g}}"):
        assert jacobi[f"jacobi {name}"].endswith(f")/({squared})"), name


@pytest.mark.parametrize("k", TOWER_SIZES)
def test_tower_trace_value_is_2k(tmp_path, k):
    path = tmp_path / f"tower_k{k}.system"
    path.write_text(family_files()[path.name], encoding="utf-8")
    result = run_case(["trace", str(path)])
    assert result == {"exit": 0, "stdout": f"value={2 * k} expected={2 * k} holds=true\n",
                      "stderr": []}


def write_golden(path: Path, data: dict) -> None:
    """Write data to path, printing each case that differs from the file's."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in sorted(set(old) | set(data)):
        if name not in data:
            print(f"dropped {path.name}: {name}")
        elif name not in old:
            print(f"added {path.name}: {name}")
        elif old[name] != data[name]:
            print(f"changed {path.name}: {name}")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {path}", file=sys.stderr)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    write_golden(GOLDEN, {name: run_case(argv) for name, argv in sorted(cases().items())})
    with tempfile.TemporaryDirectory() as workdir:
        write_golden(FAMILIES, family_digests(Path(workdir)))
