"""Host-speed probe: scales wall times to a reference host speed.

The benchmark runs on shared 2-vCPU hosts whose speed drifts by up to
1.5x over tens of seconds as neighbours load the machine; the drift is
not steal time (the guest's CPU time slows with its wall time).  Medians
over a run cannot absorb that: a run that falls in a slow phase is slow
throughout.  So every timed call is bracketed by `probe()`, a fixed
piece of interpreter and small-array numpy work that does not touch
ewhorizon, and the call's wall time is multiplied by
PROBE_REF_S / (median probe time around the call).  The result reads in
seconds of a host on which the probe takes PROBE_REF_S; a change to
ewhorizon moves it exactly as it moves wall time, while the host's phase
cancels.  Raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Probe time on an unloaded 2-vCPU Intel Xeon guest, Python 3.11.7,
# numpy 2.4.6 (the fastest decile of probe calls there).
PROBE_REF_S = 2.0e-3

_A = np.linspace(0.0, 1.0, 35)
_B = _A[::-1].copy()


def _work():
    s = 0.0
    for i in range(12000):
        s += (i * 1.5) % 7.0
    for _ in range(800):
        s += float((_A * _B + _A)[3])
    return s


def probe() -> float:
    """Wall time of one fixed probe workload."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(seconds: float, probes) -> float:
    """`seconds` of wall time at the host speed the probes saw, in
    reference seconds."""
    return seconds * PROBE_REF_S / statistics.median(probes)
