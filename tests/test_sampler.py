"""The on-shell sampler runs Newton one constraint block at a time.

A block is a connected component of "these two constraints share a
phase-space variable".  J is block-diagonal over the blocks, so the
points agree with those of the dense projector kept here as an oracle:
one pivoted QR of the whole J^T per step, with the same random draws.
"""

import contextlib
import functools
import io
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from dirackit import PhaseSpace, SamplerConfig, parse_expression, sample_on_shell
from dirackit import analysis
from dirackit.analysis import _Plan, _delta_plan, _finite, _parameter_values, constraint_blocks
from dirackit.brackets import ConstraintSystem, constraint_gradients, delta_matrix
from dirackit.cli import main
from dirackit.errors import NoOnShellPointError, PoleAtPointError
from dirackit.numeric import PivotedQR
from dirackit.sysfile import load_system, parse_system

from conftest import replace_everywhere, tower_text

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
LINKED = ("x1", "x2", "x1*x2 + p1", "p2 + p3")


def dense_sample_on_shell(ctx, cfg):
    """The projector before the block split: Newton on the whole system,
    one pivoted QR of the dense J^T per step."""
    ps = ctx.ps
    nvars = 2 * ps.n
    k = len(ctx.constraints)
    params = _parameter_values(ps, cfg)
    gradients = constraint_gradients(ctx.constraints, ps)
    residual = _Plan(k, enumerate(ctx.constraints))
    jacobian = _Plan(k * nvars, ((a * nvars + j, d) for a, grad in enumerate(gradients)
                                 for j, d in grad.items()))
    delta = _delta_plan(ctx.delta)
    rng = random.Random(cfg.seed)

    def factor(values):
        jac = jacobian(values)
        if not _finite(jac):
            return None
        return PivotedQR([jac[a * nvars:(a + 1) * nvars] for a in range(k)])

    constant_qr = None if jacobian.varying else factor(())

    def project(z):
        for _ in range(cfg.max_newton_iters):
            values = z + params
            r = residual(values)
            if all(abs(v) <= cfg.tolerance for v in r):
                return values if _finite(delta(values)) else None
            if not _finite(r):
                return None
            qr = factor(values) if jacobian.varying else constant_qr
            if qr is None:
                return None
            z = [a + b for a, b in zip(z, qr.transposed_solve([-v for v in r]))]
        return None

    points = []
    for _ in range(cfg.point_count):
        for _attempt in range(cfg.max_retries):
            try:
                found = project([rng.gauss(0.0, 1.0) for _ in range(nvars)])
            except (PoleAtPointError, OverflowError):
                continue
            if found is not None:
                break
        else:
            raise NoOnShellPointError(f"no on-shell point after {cfg.max_retries} retries")
        points.append(dict(zip(ps.symbols, found)))
    return points


def system_of(texts, ps):
    constraints = tuple(parse_expression(t, ps) for t in texts)
    return ConstraintSystem(ps, constraints, delta_matrix(constraints, ps))


def blocks_of(texts, ps):
    return constraint_blocks(constraint_gradients(
        [parse_expression(t, ps) for t in texts], ps))


def named(blocks, ps):
    return [(chis, [ps.symbols[v] for v in variables]) for chis, variables in blocks]


class TestBlocks:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_tower_splits_per_sphere_despite_the_shared_radius(self, k):
        spec = parse_system(tower_text(k, sampler_seed=1))
        blocks = constraint_blocks(constraint_gradients(spec.constraints, spec.ps))
        assert named(blocks, spec.ps) == [
            ([2 * s, 2 * s + 1],
             [f"x{3 * s + i}" for i in (1, 2, 3)] + [f"p{3 * s + i}" for i in (1, 2, 3)])
            for s in range(k)]

    def test_a_shared_constraint_links_two_groups(self):
        ps = PhaseSpace(3)
        assert named(blocks_of(LINKED, ps), ps) == [
            ([0, 1, 2], ["x1", "x2", "p1"]), ([3], ["p2", "p3"])]

    @pytest.mark.parametrize("texts", [("x1", "2"), ("x1", "r - 1"), ("r - 1", "x1")])
    def test_a_constraint_without_variables_is_its_own_block(self, texts):
        ps = PhaseSpace(3, parameters=("r",))
        constant = texts.index("x1") ^ 1
        assert named(blocks_of(texts, ps), ps) == sorted(
            [([1 - constant], ["x1"]), ([constant], [])])

    def test_a_block_without_variables_fails_at_once(self, monkeypatch):
        """Off tolerance, a constant block fails its attempt without a
        Newton step; the block x1 before it converges in one."""
        ps = PhaseSpace(3)
        steps = [0]
        solve = PivotedQR.transposed_solve

        def counted(self, rhs):
            steps[0] += 1
            return solve(self, rhs)

        monkeypatch.setattr(PivotedQR, "transposed_solve", counted)
        cfg = SamplerConfig(seed=1, point_count=1)
        with pytest.raises(NoOnShellPointError):
            sample_on_shell(system_of(("x1", "2"), ps), cfg)
        assert steps[0] == cfg.max_retries


@pytest.mark.parametrize("text, code", [
    ("[system]\nn = 3\n\n[constraints]\nchi1 = x1\nchi2 = 2\n", 4),
    ("[system]\nn = 3\nparameters = r\nbind r = 1.0\n\n"
     "[constraints]\nchi1 = x1\nchi2 = r - 1\n", 3),
])
def test_exit_codes_of_constant_constraints(tmp_path, text, code):
    path = tmp_path / "case.system"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["analyze", str(path)]) == code


def dense_cases():
    for k in (1, 2, 3, 4):
        for seed in (1, 2, 3):
            spec = parse_system(tower_text(k, sampler_seed=seed))
            yield f"tower_k{k}_seed{seed}", ConstraintSystem(
                spec.ps, spec.constraints, delta_matrix(spec.constraints, spec.ps)), spec.sampler
    spec = load_system(str(SYSTEMS / "sphere.system"))
    yield "sphere", ConstraintSystem(
        spec.ps, spec.constraints, delta_matrix(spec.constraints, spec.ps)), spec.sampler
    for seed in (1, 2, 3):
        yield f"linked_seed{seed}", system_of(LINKED, PhaseSpace(3)), SamplerConfig(seed=seed)


DENSE_CASES = list(dense_cases())


@pytest.mark.parametrize("name, system, cfg", DENSE_CASES, ids=[case[0] for case in DENSE_CASES])
def test_points_agree_with_the_dense_projector(name, system, cfg):
    blocked = sample_on_shell(system, cfg)
    dense = dense_sample_on_shell(system, cfg)
    assert len(blocked) == len(dense) == cfg.point_count
    for a, b in zip(blocked, dense):
        assert a.keys() == b.keys()
        assert all(abs(a[s] - b[s]) <= 10 * cfg.tolerance for s in a), name


def sampler_factorizations(monkeypatch, text, tmp_path):
    """(rows, columns) of each J^T the sampler factors in one analyze."""
    shapes, inside = Counter(), [0]
    original = sys.modules["dirackit.analysis"].sample_on_shell

    @functools.wraps(original)
    def sampling(*args, **kwargs):
        inside[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            inside[0] -= 1

    class Counted(PivotedQR):
        __slots__ = ()

        def __init__(self, columns):
            columns = list(columns)
            if inside[0]:
                shapes[len(columns[0]), len(columns)] += 1
            super().__init__(columns)

    with monkeypatch.context() as patch:
        replace_everywhere(patch, original, sampling)
        patch.setattr(analysis, "PivotedQR", Counted)
        path = tmp_path / "tower.system"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["analyze", str(path), "--format", "json"]) == 0
    return shapes


def test_tower_factors_only_block_sized_jacobians(monkeypatch, tmp_path):
    """On the k = 4 tower each factored J^T is one sphere's, 6 x 2, and
    the counts repeat exactly."""
    text = tower_text(4, sampler_seed=3)
    first = sampler_factorizations(monkeypatch, text, tmp_path)
    assert first and max(rows for rows, _ in first) <= 6
    assert sampler_factorizations(monkeypatch, text, tmp_path) == first
