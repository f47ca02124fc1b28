"""Machine-speed calibration of the benchmark's timings.

The benchmark machine is a few cores of a shared host. When other tenants
load the host, the same code runs 30-70% slower for seconds to minutes at
a time; process CPU time slows by the same factor, so the cause is
contention for the core and its caches, not time the hypervisor takes
away, and neither wall time nor CPU time escapes it. A run that falls
entirely in such a spell reads slow whatever statistic it reports.

So every timed interval is bracketed by a block of a fixed reference
workload, and its wall time is divided by the block's slowdown: the
median time of a reference unit over REFERENCE_S. The unit does the two
kinds of work the solvers do, pure-Python float arithmetic and small
numpy operations. Scaled times are wall times at the speed where one unit
takes REFERENCE_S, which is the speed of the unloaded machine; they stay
within a few percent across load spells that move raw wall times by 30%
or more. The reference work is the benchmark's own code, so a change to
the program moves scaled times exactly as it moves wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Wall time of one reference unit on an unloaded core of the benchmark
#: machine (2 vCPU KVM guest, Python 3 with numpy's OpenBLAS at 1 thread).
REFERENCE_S = 0.0030
#: Reference units per calibration block; the block reports their median.
UNITS = 8


def _unit() -> float:
    xa, xb = 0.3, 0.1
    for _ in range(15_000):
        xa, xb = 0.4 * xa - 0.3 * xb + 0.2, 0.3 * xa + 0.4 * xb + 0.1
    a = np.zeros(4)
    for _ in range(1_000):
        a = np.sqrt(a * 0.5 + 1.0)
    return xa + float(a[0])


def slowdown() -> float:
    """How many times slower than the reference speed the machine runs now."""
    times = []
    for _ in range(UNITS):
        start = time.perf_counter()
        _unit()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


def timed(fn):
    """Run fn(); returns (its result or None, raw wall time, scaled time, exception or None)."""
    before = slowdown()
    start = time.perf_counter()
    try:
        out, exc = fn(), None
    except Exception as err:  # the caller decides what a raising call means
        out, exc = None, err
    raw = time.perf_counter() - start
    return out, raw, raw / ((before + slowdown()) / 2), exc
