"""Host speed reference that op and set-up times are scaled by.

On a shared host, other guests slow this one's CPU by up to about twofold
for tens of seconds at a time (they share its cores and caches), and CPU
time does not leave that out. So the benchmark times a fixed kernel right
before and after each op and reports the op's CPU time times
REFERENCE_MS / kernel time: what the op costs at the host speed where the
kernel takes REFERENCE_MS. The kernel mixes the kinds of work the
workloads do (interpreted float loops, string formatting and numpy on a
400 KB array) and uses nothing from the package under test, so a change
to the package moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's CPU time on an unloaded host: Intel Xeon (2 vCPUs),
# Python 3.11.7, numpy 2.4.
REFERENCE_MS = 0.80
# Back-to-back runs per measurement; the fastest counts, so a run slowed
# by the caches a large op left cold does not.
REPEATS = 3

_ARRAY = np.linspace(1.0, 2.0, 50_000)


def _kernel() -> None:
    parts = []
    for i in range(1, 800):
        x = math.sqrt(i) * math.cos(i * 0.01)
        if i % 10 == 0:
            parts.append(f"{x:.6g}")
    ",".join(parts)
    b = np.cos(_ARRAY) * _ARRAY
    b.sort()


def kernel_ms() -> float:
    """CPU ms of the kernel, fastest of REPEATS runs."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.process_time()
        _kernel()
        best = min(best, time.process_time() - t0)
    return best * 1e3
