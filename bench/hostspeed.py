"""Host speed reference: a fixed piece of work that never touches loadsynth.

The benchmark's host is a small virtual machine on a shared machine.  With
the program unchanged, its speed drifts by up to 2x over seconds to
minutes, which is more than any bound the benchmark could hold.  So the
workload process also times `probe()`, a fixed piece of work of the
benchmark's own, after each op.  A run's end-to-end times are reported
scaled by `NOMINAL_PROBE_S / median(probe times)`: seconds on a host where
one probe takes `NOMINAL_PROBE_S`.  A change to loadsynth moves the
program's times and not the probe's.  The unscaled wall times are printed
in each run's details.

The probe mixes what the workloads spend their time on: interpreted
Python loops, float formatting as in a CSV writer, and element-wise numpy
work on a few hundred kilobytes.  It uses no BLAS call, so the BLAS thread
count cannot move it, and it runs with the garbage collector paused, so
the objects an op leaves behind cannot either.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# median probe time on the machine the benchmark was tuned on (Intel Xeon,
# 2 vCPUs) in its fast periods; it only fixes the unit of the scaled times
NOMINAL_PROBE_S = 0.007
PROBE_SHARE = 0.1  # probe time after each op, as a share of the op's time

_V = np.linspace(1.0, 2.0, 32_768)


def probe() -> float:
    """Seconds one fixed unit of reference work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += (i * i) % 7
        text = "".join("%.6f,%.6f\n" % (i * 0.5, i * 0.25) for i in range(4_000))
        w = _V
        for _ in range(24):
            w = np.sqrt(w * 1.0001 + 0.5)
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if acc != 79_997 or text.count("\n") != 4_000 or not np.isfinite(w[-1]):
        raise AssertionError("the reference work went wrong")
    return elapsed


def probes_after(op_s: float) -> list[float]:
    """Probe for a share of an op's time, at least once; the probe times."""
    times = [probe()]
    while sum(times) < PROBE_SHARE * op_s:
        times.append(probe())
    return times


def scale(probe_times) -> float:
    """Factor that turns wall seconds into seconds at the nominal speed."""
    return NOMINAL_PROBE_S / statistics.median(probe_times)
