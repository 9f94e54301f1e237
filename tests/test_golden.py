"""Golden CLI outputs: every command on every shipped system.

The goldens in `golden/cli.json` pin stdout, exit code and the stderr
lines other than `[timing]` for each case.  `timings_ms` is the only
part of a report that may change between runs, so it is stripped from
both the golden and the fresh output before they are compared.

Regenerate (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dirackit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
SYSTEM_NAMES = sorted(p.name for p in (ROOT / "systems").glob("*.system"))
SPHERE_BRACKETS = (("x1", "p1"), ("x1*p2", "x2*p3"))


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


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


@pytest.mark.parametrize("name", sorted(cases()))
def test_output_matches_golden(golden, name):
    assert run_case(cases()[name]) == golden[name]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: run_case(argv) for name, argv in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}", file=sys.stderr)
