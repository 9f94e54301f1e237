"""Dense float linear algebra for the on-shell sampler and the rank check.

A matrix is a list of columns of floats.  One factorization serves both
uses: a Householder QR with column pivoting (Businger & Golub 1965).
After each step the norms of the trailing columns are recomputed below
the new row of R, which costs no more than the reflector update, so a
k-column factorization costs O(k^3).  The numeric rank is read off the
diagonal of R; the sampler's Newton step on each constraint block solves
J s = -r through the QR of that block's J^T, truncated at its numeric
rank.
"""

from __future__ import annotations

import math
import sys
from itertools import takewhile
from operator import mul

EPSILON = sys.float_info.epsilon


class PivotedQR:
    """A P = Q R for a matrix A given by its columns.

    `diag` holds the diagonal of R, largest first; `perm[j]` is the
    column of A that became column j.  Q is kept as its Householder
    reflectors; R's entries above the diagonal stay in `columns`.
    """

    __slots__ = ("columns", "diag", "perm", "reflectors")

    def __init__(self, columns):
        cols = [list(c) for c in columns]
        n = len(cols)
        m = len(cols[0]) if cols else 0
        perm = list(range(n))
        norms = [math.hypot(*c) for c in cols]  # norms of the unreduced parts
        diag, reflectors = [], []
        for j in range(min(m, n)):
            p = max(range(j, n), key=norms.__getitem__)
            if p != j:
                for seq in (cols, norms, perm):
                    seq[j], seq[p] = seq[p], seq[j]
            col = cols[j]
            alpha = math.hypot(*col[j:])
            if alpha == 0.0:  # every column left is zero
                diag.extend([0.0] * (min(m, n) - j))
                break
            if col[j] > 0:
                alpha = -alpha
            v = col[j:]
            v[0] -= alpha
            tau = -1.0 / alpha / v[0]  # 2 / v.v; alpha and v[0] differ in sign
            for t in range(j + 1, n):
                c = cols[t]
                s = tau * sum(map(mul, v, c[j:]))
                if s:
                    c[j:] = [ci - s * vi for ci, vi in zip(c[j:], v)]
                norms[t] = math.hypot(*c[j + 1:])
            col[j] = alpha
            diag.append(alpha)
            reflectors.append((v, tau))
        self.columns, self.diag, self.perm, self.reflectors = cols, diag, perm, reflectors

    def rank(self, rtol: float) -> int:
        """The leading diagonal entries of R above rtol times the largest
        one (pivoting sorts them, so these are all of them)."""
        if not self.diag:
            return 0
        cutoff = rtol * max(abs(self.diag[0]), 1e-300)
        return sum(1 for _ in takewhile(lambda d: abs(d) > cutoff, self.diag))

    def transposed_solve(self, rhs) -> list[float]:
        """A least-squares solution x of A^T x = rhs, A the factored matrix.

        With A^T = P R^T Q^T and R truncated at its numeric rank r (the
        cutoff is machine epsilon times the larger dimension), x = Q y
        where R11^T y equals the first r entries of P^T rhs: x lies in
        the span of A's columns, and the equations beyond the rank,
        dependent on the first r up to rounding, are left out.
        """
        cols, diag = self.columns, self.diag
        size = len(cols[0])
        rank = self.rank(EPSILON * max(len(cols), size))
        y = []
        for i in range(rank):
            y.append((rhs[self.perm[i]] - sum(map(mul, cols[i][:i], y))) / diag[i])
        x = y + [0.0] * (size - rank)
        for j in range(rank - 1, -1, -1):
            v, tau = self.reflectors[j]
            s = tau * sum(map(mul, v, x[j:]))
            if s:
                x[j:] = [xi - s * vi for xi, vi in zip(x[j:], v)]
        return x
