"""The pure-Python numeric layer against numpy: the rank of a pivoted QR,
the truncated least-squares step, and a package that imports only the
standard library."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirackit.analysis import RANK_TOLERANCE
from dirackit.numeric import PivotedQR

SRC = Path(__file__).resolve().parent.parent / "src"


def with_singular_values(rng: random.Random, values) -> np.ndarray:
    """A random square matrix U diag(values) V^T with orthogonal U, V."""
    size = len(values)
    u, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)]))
    v, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)]))
    return u @ np.diag(values) @ v.T


def skew_with_pairs(rng: random.Random, pairs) -> np.ndarray:
    """A random skew-symmetric Q B Q^T whose singular values are `pairs`,
    each twice, like a Delta of len(pairs) constraint pairs."""
    size = 2 * len(pairs)
    q, _ = np.linalg.qr(np.array([[rng.gauss(0, 1) for _ in range(size)] for _ in range(size)]))
    block = np.zeros((size, size))
    for i, s in enumerate(pairs):
        block[2 * i, 2 * i + 1], block[2 * i + 1, 2 * i] = s, -s
    return q @ block @ q.T


def reference_rank(a: np.ndarray) -> int:
    """The parent rule: singular values above RANK_TOLERANCE times the largest."""
    top = np.linalg.svd(a, compute_uv=False)[0] if a.size else 0.0
    return int(np.linalg.matrix_rank(a, tol=RANK_TOLERANCE * max(top, 1e-300)))


def qr_rank(a: np.ndarray) -> int:
    return PivotedQR([list(col) for col in a.T]).rank(RANK_TOLERANCE)


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_numpy_on_a_clear_gap(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 9)
    rank = rng.randint(1, size)  # a relative rule sees no gap below an all-tiny spectrum
    values = [rng.uniform(0.5, 5.0) for _ in range(rank)] + \
             [rng.uniform(0.0, 1e-13) for _ in range(size - rank)]
    a = with_singular_values(rng, values)
    assert qr_rank(a) == reference_rank(a) == rank


@pytest.mark.parametrize("seed", range(12))
def test_rank_matches_numpy_on_skew_delta(seed):
    rng = random.Random(100 + seed)
    pairs = [rng.uniform(0.5, 3.0) for _ in range(rng.randint(2, 5))]
    a = skew_with_pairs(rng, pairs)
    assert qr_rank(a) == reference_rank(a) == 2 * len(pairs)
    pairs[rng.randrange(len(pairs))] *= 1e-12
    a = skew_with_pairs(rng, pairs)
    assert qr_rank(a) == reference_rank(a) == 2 * len(pairs) - 2


def test_rank_of_zero_and_exact_dependence():
    assert PivotedQR([[0.0, 0.0], [0.0, 0.0]]).rank(RANK_TOLERANCE) == 0
    assert PivotedQR([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]).rank(RANK_TOLERANCE) == 1


@pytest.mark.parametrize("seed", range(10))
def test_transposed_solve_is_the_least_squares_step(seed):
    """On a consistent, possibly rank-deficient J s = -r the step equals
    numpy's minimum-norm least-squares solution."""
    rng = random.Random(200 + seed)
    k = rng.randint(1, 6)
    n = rng.randint(k, 10)
    rank = rng.randint(1, k)
    j = np.array([[rng.gauss(0, 1) for _ in range(rank)] for _ in range(k)]) @ \
        np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(rank)])
    r = j @ np.array([rng.gauss(0, 1) for _ in range(n)])
    step = PivotedQR([list(row) for row in j]).transposed_solve(list(-r))
    expected, *_ = np.linalg.lstsq(j, -r, rcond=None)
    assert np.allclose(step, expected, atol=1e-9)


IMPORT_EVERY_MODULE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import dirackit
for info in pkgutil.iter_modules(dirackit.__path__):
    importlib.import_module("dirackit." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - {"dirackit"} - set(sys.stdlib_module_names)))
"""


def test_cli_import_leaves_numpy_out():
    """Importing every dirackit module loads nothing from outside the
    standard library (numpy included), as `dependencies = []` promises."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_EVERY_MODULE], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
