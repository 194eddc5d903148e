"""Calibration of the benchmark's timings against a fixed probe.

On a shared host, a virtual CPU whose physical core another tenant keeps
busy runs everything about 1.6 times slower, in phases of a fraction of a
second to minutes, and the scheduler does not move a lone busy thread off
it.  No statistic of the program's own timings removes phases that last as
long as a run.  A fixed probe of numpy and interpreter work, timed right
before and right after each measured call, slows down with them, so the
benchmark reports

    calibrated time = measured time * REFERENCE_PROBE_S / probe time

where the probe time is the mean of the two probes around the call: one
probe before a call of a few hundred milliseconds says little about the
phases the call itself runs through.

REFERENCE_PROBE_S is the probe's time on an uncontended core of the
machine the benchmark was written on (a 2-vCPU x86-64 VM, Python 3.11,
numpy 2.4), so there calibrated and measured seconds agree.  On another
machine calibrated seconds are seconds at that reference speed; compare
them between commits on one machine, as every timing.
"""

from __future__ import annotations

import time

import numpy

REFERENCE_PROBE_S = 0.8e-3

_GRID = numpy.linspace(0.0, 1.0, 2000)


def probe() -> float:
    """Seconds the fixed probe takes now: about 0.8 ms on an uncontended core."""
    started = time.perf_counter()
    total = 0.0
    for step in range(30):
        total += float(numpy.sum(numpy.sin(_GRID * step)))
    for step in range(1500):
        total += step * 0.5
    return time.perf_counter() - started


def calibrated(measured_s: float, probe_s: float) -> float:
    return measured_s * REFERENCE_PROBE_S / probe_s
