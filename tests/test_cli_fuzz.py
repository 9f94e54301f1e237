"""A derandomized mutation fuzz through `cli.main`: of the shipped
`.system` files, and of generated families (sphere towers
`tower_text(2, s)` and linear mixes `mix_text(4, 2, Random(s))` from
`conftest.py`).  Whatever a mutant says, every command ends with a
documented exit code (0, 2, 3, 4 or 5), never 1 ("internal error"), and
a JSON report on exit 0 validates against `report_schema.json` (an
analyze report in full; a classify or closure report with the keys it
writes) and is its own `json.loads` -> `json.dumps(indent=2)` round trip.

A mutant never samples harder than the file it came from: one whose
`points`, `max_retries` or `max_newton_iters` would exceed its source's
value is drawn again.  Seeds and case counts are fixed below; each test
takes under a second on a 2-vCPU machine.
"""

import contextlib
import io
import json
import random
from importlib import resources
from pathlib import Path

import jsonschema

from dirackit.cli import main
from dirackit.errors import DiracKitError
from dirackit.sysfile import parse_system

from conftest import mix_text, tower_text

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = {p.name: p.read_text(encoding="utf-8")
           for p in sorted((ROOT / "systems").glob("*.system"))}
BOUNDED = ("point_count", "max_retries", "max_newton_iters")
JUNK = "+-*/^()=[]# 019xpr.e\n\u0663"
NUMBERS = ("0", "-1", "2", "1/2", "1e-3", "nan", "inf", "x1", "")
COMMANDS = (["analyze", "--format", "json"], ["analyze", "--format", "text"],
            ["classify", "--format", "json"], ["closure", "--mode", "dirac"],
            ["closure", "--mode", "poisson", "--format", "json"], ["trace"], ["verdict"])
CASES = 300
SEED = 0
FAMILIES = {**{f"tower_k2_s{s}": tower_text(2, s) for s in range(3)},
            **{f"mix_m2_n4_s{s}": mix_text(4, 2, random.Random(s)) for s in range(3)}}
FAMILY_CASES = 400
FAMILY_SEED = 1
_SCHEMA = json.loads(
    resources.files("dirackit").joinpath("report_schema.json").read_text(encoding="utf-8"))
# The schema is that of an analyze report.  classify and closure write a
# part of it: the same keys and forms, with fewer of them required.
SCHEMAS = {"analyze": jsonschema.Draft202012Validator(_SCHEMA),
           "part": jsonschema.Draft202012Validator(dict(_SCHEMA, required=[
               "version", "input_digest", "system", "timings_ms"]))}


def _mutate(rng: random.Random, text: str, donors: dict[str, str]) -> str:
    """One line- or character-level edit of text, which may insert a line
    of one of the donor texts."""
    lines = text.split("\n")
    at = rng.randrange(len(lines))
    edit = rng.randrange(6)
    if edit == 0:
        del lines[at]
    elif edit == 1:
        lines.insert(at, lines[at])
    elif edit == 2:
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif edit == 3:
        donor = donors[rng.choice(sorted(donors))].split("\n")
        lines.insert(at, rng.choice(donor))
    elif edit == 4 and "=" in lines[at]:
        key = lines[at].split("=")[0]
        lines[at] = f"{key}= {rng.choice(NUMBERS)}"
    else:
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        junk = rng.choice(JUNK)
        return text[:pos] + (junk if kind else "") + text[pos + (kind != 1):]
    return "\n".join(lines)


def _bounds(text: str):
    """The sampling bounds a text declares, or None when it does not parse."""
    try:
        sampler = parse_system(text).sampler
    except DiracKitError:
        return None
    return tuple(getattr(sampler, name) for name in BOUNDED)


def mutants(seed: int, count: int, sources: dict[str, str] = SHIPPED):
    """(source name, mutant text, argv after the path), derandomized by seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        name = rng.choice(sorted(sources))
        text = sources[name]
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text, sources)
        bounds, source = _bounds(text), _bounds(sources[name])
        if bounds is not None and any(b > s for b, s in zip(bounds, source)):
            continue
        out.append((name, text, rng.choice(COMMANDS)))
    return out


def _exit_codes(tmp_path, cases) -> dict[int, int]:
    """Run each mutant, check its exit code and any JSON report it writes,
    and count the exit codes."""
    path = tmp_path / "mutant.system"
    codes = {}
    for name, text, command in cases:
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command[0], str(path)] + command[1:])
        assert code in {0, 2, 3, 4, 5}, (name, command, text, err.getvalue())
        if code == 0 and "json" in command:
            report = json.loads(out.getvalue())
            SCHEMAS.get(command[0], SCHEMAS["part"]).validate(report)
            assert out.getvalue() == json.dumps(report, indent=2) + "\n", (name, command, text)
        codes[code] = codes.get(code, 0) + 1
    return codes


def test_mutated_system_files_exit_with_a_documented_code(tmp_path):
    codes = _exit_codes(tmp_path, mutants(SEED, CASES))
    # the mutants reach both working analyses and rejected input
    assert codes.get(0, 0) > 30 and codes.get(2, 0) > 30, codes


def test_mutated_family_files_exit_with_a_documented_code(tmp_path):
    codes = _exit_codes(tmp_path, mutants(FAMILY_SEED, FAMILY_CASES, FAMILIES))
    assert codes.get(0, 0) > 40 and codes.get(2, 0) > 40, codes
