"""A derandomized mutation fuzz of the shipped `.system` files through
`cli.main`: whatever a mutant says, every command ends with a documented
exit code (0, 2, 3, 4 or 5), never 1 ("internal error").

A mutant never samples harder than the file it came from: one whose
`points`, `max_retries` or `max_newton_iters` would exceed the shipped
value is drawn again.
"""

import contextlib
import io
import random
from pathlib import Path

from dirackit.cli import main
from dirackit.errors import DiracKitError
from dirackit.sysfile import parse_system

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


def _mutate(rng: random.Random, text: str) -> str:
    """One line- or character-level edit of text."""
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
        donor = SHIPPED[rng.choice(sorted(SHIPPED))].split("\n")
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


def mutants(seed: int, count: int):
    """(file name, mutant text, argv after the path), derandomized by seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        name = rng.choice(sorted(SHIPPED))
        text = SHIPPED[name]
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        bounds, shipped = _bounds(text), _bounds(SHIPPED[name])
        if bounds is not None and any(b > s for b, s in zip(bounds, shipped)):
            continue
        out.append((name, text, rng.choice(COMMANDS)))
    return out


def test_mutated_system_files_exit_with_a_documented_code(tmp_path):
    path = tmp_path / "mutant.system"
    codes = {}
    for name, text, command in mutants(SEED, CASES):
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command[0], str(path)] + command[1:])
        assert code in {0, 2, 3, 4, 5}, (name, command, text, err.getvalue())
        codes[code] = codes.get(code, 0) + 1
    # the mutants reach both working analyses and rejected input
    assert codes.get(0, 0) > 30 and codes.get(2, 0) > 30, codes
