"""Timings at a reference speed of the machine.

The measuring machine (a 2-vCPU VM on a shared host) changes speed by up to
1.5x for seconds to minutes at a time, so a wall time alone says as much
about the host as about the program. ``measure(fn)`` therefore times a fixed
integer loop (the probe) PROBE_EDGE times right before and right after
``fn()``, and every PROBE_PERIOD_S seconds while it runs, from a SIGALRM
handler that runs between the program's own bytecodes. The median probe
time over the call says how slow the machine was while the call ran (a mean
would follow the odd probe that the host stalls for several milliseconds),
and the call's own time (probes taken out) is scaled by REFERENCE_PROBE_S
over it.

A change to the program leaves the probe as it is, so it moves the scaled
time as it moves the wall time. This module imports only the standard
library, so that it can time the import of numpy and the package.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_LOOPS = 20_000
PROBE_PERIOD_S = 0.1
PROBE_EDGE = 5
# The probe's time on the 2-vCPU Xeon VM the benchmark was written on, in
# the slower of its two usual states; it only fixes the unit of the scaled
# times.
REFERENCE_PROBE_S = 0.002


def _probe(samples: list[float]) -> None:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    samples.append(time.perf_counter() - t0)


def measure(fn):
    """Run ``fn()``; return its result, the seconds it took with the probes
    taken out, and those seconds at the reference speed."""
    samples: list[float] = []
    for _ in range(PROBE_EDGE):
        _probe(samples)
    edge = len(samples)
    previous = signal.signal(signal.SIGALRM, lambda *_: _probe(samples))
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    seconds = wall - sum(samples[edge:])
    for _ in range(PROBE_EDGE):
        _probe(samples)
    return result, seconds, seconds * REFERENCE_PROBE_S / statistics.median(samples)
