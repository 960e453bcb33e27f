"""Machine speed probe for a noisy, shared host.

The host this benchmark was written on changes speed by up to 1.5x for
tens of seconds at a time (other tenants share its cores).  The probe
times a fixed kernel that uses no mcsip code: small HiGHS solves through
scipy.optimize.linprog, the same mix of native solver and interpreter work
as the solver cells.  A cell's time divided by the mean of the probe's time
just before and just after it, times REFERENCE_S, is the cell's time at the
reference speed: a change to mcsip moves it in full, a slow spell of the
host mostly does not.  The probe is the fastest of a few short repeats,
so that a one-off stall (the first allocations after a large model was
freed) does not count as a slow spell.  On the 2 vCPU host, over 59 back-to-back solves of
one sddp cell, this cut the coefficient of variation from 0.14 to 0.075;
a probe running at the same time on the other vCPU did not track the
slowdowns at all, so the probe runs in line, between cells.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

# round figure near the probe's seconds on the machine the baseline was
# measured on (2 vCPU Intel Xeon VM); it only sets the scale of the
# normalised times
REFERENCE_S = 0.04
LP_SOLVES = 10
REPEATS = 3


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(12345)
        m, n = 60, 90
        self.a = rng.uniform(0.0, 1.0, (m, n)) * (rng.random((m, n)) < 0.3)
        self.b = self.a @ rng.uniform(0.0, 1.0, n) + 0.5
        self.c = -rng.uniform(0.5, 1.0, n)
        self.last = self.probe()

    def probe(self) -> float:
        """Seconds the fixed kernel takes now (fastest of REPEATS runs)."""
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            for _ in range(LP_SOLVES):
                res = linprog(self.c, A_ub=self.a, b_ub=self.b, bounds=(0.0, 2.0),
                              method="highs")
                if res.status != 0:
                    raise RuntimeError(f"speed probe LP failed: {res.message}")
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self) -> float:
        """Reference-speed factor for the interval since the previous call."""
        before, self.last = self.last, self.probe()
        return REFERENCE_S / (0.5 * (before + self.last))
