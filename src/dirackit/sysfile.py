"""Loader for the line-oriented system definition format.

Sections may appear in any order; '#' starts a comment anywhere.
Expression text uses the expression grammar verbatim, so there is no
ambiguity between configuration parsing and expression parsing.
"""

from __future__ import annotations

import hashlib
import math
import re

from .analysis import SamplerConfig
from .closure import PrimarySet
from .errors import DiracKitError, ExpressionSyntaxError, ValidationError
from .expr import RationalExpr
from .parser import parse_expression
from .phase_space import PhaseSpace, Record

_SECTIONS = ("system", "constraints", "hamiltonian", "primaries", "onshell", "sampler")
# The expression grammar's identifier rule; primary names label brackets ("{a,b}", "{a,H}").
_IDENTIFIER = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class SystemSpec(Record):
    # primaries carries the [hamiltonian], if one is declared; on_shell_rules
    # are the [onshell] constraints as polynomials, in file order; input_digest
    # is "sha256:" and the hex SHA-256 of the UTF-8 text.
    __slots__ = _fields = ("ps", "constraints", "primaries", "on_shell_rules", "sampler",
                           "input_digest")

    def __init__(self, ps: PhaseSpace, constraints: tuple[RationalExpr, ...],
                 primaries: PrimarySet | None, on_shell_rules: tuple, sampler: SamplerConfig,
                 input_digest: str):
        self._assign(ps, constraints, primaries, on_shell_rules, sampler, input_digest)


def _strip(line: str) -> str:
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip()


def _split_kv(line: str, lineno: int):
    if "=" not in line:
        raise ValidationError(f"line {lineno}: expected 'name = value', got {line!r}")
    key, _, value = line.partition("=")
    key, value = key.strip(), value.strip()
    if not key or not value:
        raise ValidationError(f"line {lineno}: empty name or value in {line!r}")
    return key, value


def _claim(seen: set, key: str, where: str) -> None:
    """A key may appear once in a section; a repeat is rejected, not last-wins."""
    if key in seen:
        raise ValidationError(f"{where} key {key!r} given twice")
    seen.add(key)


def load_system(path: str) -> SystemSpec:
    """Read the file once, with no newline translation, so its text
    encodes back to exactly the bytes read, and a pipe is read only once."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            raw = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    return parse_system(raw, source=str(path))


def parse_system(text: str, source: str = "<string>") -> SystemSpec:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = _strip(line)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ValidationError(f"{source}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise ValidationError(f"{source}:{lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise ValidationError(f"{source}:{lineno}: content before any section")
        sections[current].append((lineno, line))

    if "system" not in sections:
        raise ValidationError(f"{source}: missing [system] section")

    n = None
    parameters: tuple[str, ...] = ()
    bindings: dict[str, float] = {}
    seen: set[str] = set()
    for lineno, line in sections["system"]:
        bind = line.startswith("bind ")
        key, value = _split_kv(line[5:] if bind else line, lineno)
        _claim(seen, f"bind {key}" if bind else key, f"{source}:{lineno}: [system]")
        if bind:
            try:
                bindings[key] = float(value)
            except ValueError:
                raise ValidationError(
                    f"{source}:{lineno}: bad numeric binding {value!r}") from None
            if not math.isfinite(bindings[key]):
                raise ValidationError(
                    f"{source}:{lineno}: binding {value!r} is not a finite number")
            continue
        if key == "n":
            try:
                n = int(value)
            except ValueError:
                raise ValidationError(f"{source}:{lineno}: n must be an integer") from None
        elif key == "parameters":
            parameters = tuple(p.strip() for p in value.replace(",", " ").split())
        else:
            raise ValidationError(f"{source}:{lineno}: unknown [system] key {key!r}")
    if n is None:
        raise ValidationError(f"{source}: [system] must declare n")
    for name in bindings:
        if name not in parameters:
            raise ValidationError(f"{source}: binding for undeclared parameter {name!r}")
    ps = PhaseSpace(n=n, parameters=parameters)

    def parse_named(section: str):
        names, exprs = [], []
        for lineno, line in sections.get(section, []):
            key, value = _split_kv(line, lineno)
            if key in names:
                raise ValidationError(f"{source}:{lineno}: duplicate name {key!r}")
            try:
                exprs.append(parse_expression(value, ps))
            except ExpressionSyntaxError as exc:
                raise ValidationError(
                    f"{source}:{lineno}:{exc.position}: {exc}") from exc
            except DiracKitError as exc:
                raise ValidationError(f"{source}:{lineno}: {exc}") from exc
            names.append(key)
        return tuple(names), tuple(exprs)

    constraint_names, constraints = parse_named("constraints")
    if not constraints:
        raise ValidationError(f"{source}: missing or empty [constraints] section")

    ham_names, ham_exprs = parse_named("hamiltonian")
    if len(ham_exprs) > 1:
        raise ValidationError(f"{source}: [hamiltonian] must declare one expression")
    hamiltonian = ham_exprs[0] if ham_exprs else None

    prim_names, prim_exprs = parse_named("primaries")
    for name in prim_names:
        if not _IDENTIFIER.fullmatch(name):
            raise ValidationError(f"{source}: primary name {name!r} is not an identifier")
        if name == "H" and hamiltonian is not None:
            raise ValidationError(
                f"{source}: primary name 'H' is reserved for the Hamiltonian")
    primaries = None
    if prim_names:
        primaries = PrimarySet(names=prim_names, exprs=prim_exprs,
                               hamiltonian=hamiltonian)

    on_shell = []
    for lineno, line in sections.get("onshell", []):
        if not line.startswith("use "):
            raise ValidationError(f"{source}:{lineno}: expected 'use <constraint name>'")
        name = line[4:].strip()
        if name not in constraint_names:
            raise ValidationError(f"{source}:{lineno}: unknown constraint {name!r}")
        rule = constraints[constraint_names.index(name)]
        if not rule.is_polynomial:
            raise ValidationError(f"{source}:{lineno}: on-shell rule {name!r} is not a polynomial")
        on_shell.append(rule.as_polynomial())

    sampler_kwargs = {"parameter_bindings": bindings}
    keys = {"seed": int, "points": int, "tolerance": float,
            "max_newton_iters": int, "max_retries": int}
    rename = {"points": "point_count"}
    seen = set()
    for lineno, line in sections.get("sampler", []):
        key, value = _split_kv(line, lineno)
        if key not in keys:
            raise ValidationError(f"{source}:{lineno}: unknown [sampler] key {key!r}")
        _claim(seen, key, f"{source}:{lineno}: [sampler]")
        try:
            sampler_kwargs[rename.get(key, key)] = keys[key](value)
        except ValueError:
            raise ValidationError(f"{source}:{lineno}: bad value for {key!r}") from None
    sampler = SamplerConfig(**sampler_kwargs)

    return SystemSpec(
        ps=ps,
        constraints=constraints,
        primaries=primaries,
        on_shell_rules=tuple(on_shell),
        sampler=sampler,
        input_digest="sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest(),
    )
