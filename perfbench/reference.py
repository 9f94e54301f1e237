"""Fixed reference computation that measures the machine's current speed.

On a shared 2-vCPU machine the throughput of one Python process drifts
by up to 2x over tens of seconds, because of work outside the machine's
control.  Steal time stays at 0 and CPU time tracks wall time, so
neither shows it.  Raw wall times then spread 0.2-0.7 (interquartile
range over median) between runs of identical work.

The benchmark therefore times a fixed slice of work next to everything
it times, and reports times scaled to the speed at which one slice takes
REFERENCE_S:

    scaled = measured * REFERENCE_S / slice time measured just before

The slice is the same kind of work as dirackit's kernel, a sparse
polynomial product with Fraction coefficients over 13 symbols, so that
contention slows both alike; a smaller product over 3 symbols tracked
the program worse.  This code must not change while timings are compared.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# Slice time in quiet periods on the machine the baseline was measured on.
REFERENCE_S = 0.017
_SYMBOLS = 13
_TERMS = 60


class Reference:
    def __init__(self):
        rng = random.Random(0)
        self._a, self._b = (
            {tuple(rng.randrange(3) for _ in range(_SYMBOLS)):
             Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(_TERMS)}
            for _ in range(2))
        self.slice_seconds()  # warm-up

    def slice_seconds(self) -> float:
        start = time.perf_counter()
        out: dict = {}
        for m1, c1 in self._a.items():
            for m2, c2 in self._b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return time.perf_counter() - start

    def factor(self, budget_s: float) -> float:
        """REFERENCE_S over the median slice time, timed now with slices
        adding up to at least budget_s (one slice at least)."""
        slices = [self.slice_seconds()]
        while sum(slices) < budget_s:
            slices.append(self.slice_seconds())
        return REFERENCE_S / statistics.median(slices)
