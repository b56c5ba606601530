"""Speed probe: puts times taken at different moments on one scale.

On a shared host, neighbours' load slows this process by up to 1.5x, in
spells that last from under a second to minutes, longer than a run.  A
time measured in such a spell says as much about the host as about
qtgrad.  So the benchmark times a fixed piece of work that does not touch
qtgrad, a probe, just before each solve and each set-up, and reports

    scaled time = measured time * REF_S / probe time,

the time the work would have taken at the speed at which the probe takes
REF_S.  Load that slows the probe and the solve alike cancels out; a
change to qtgrad moves the solve and not the probe.  The raw times go to
the meta line beside the scaled ones.

Two probes, matched to what the workloads spend their time on: ``probe``
is interpreted float arithmetic, like the scalar stepsize path, the
Python objectives and the line search of refgrid and unc_suite;
``StreamProbe`` streams 24 MB through numpy, bandwidth-bound like
quad_large's vector kernel at n = 1e6.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The probes' times in an unloaded spell on the 2-vCPU Xeon host the
# benchmark was written on.  Only the ratio of a probe's time to its
# REF_S enters a result, so they are fixed for good: changing one would
# change every time scaled by it.
REF_S = 42e-6
STREAM_REF_S = 1.75e-3
STREAM_N = 1_000_000


def probe():
    """Interpreted float arithmetic, about 40 us."""
    s = 0.0
    for i in range(1, 300):
        s += (i * 0.5 - s * 1e-3) / i
        s = math.sqrt(s * s + 1.0) if s < 1e6 else 0.0
    return s


class StreamProbe:
    """Streams three 8 MB float vectors through numpy, about 1.75 ms."""

    def __init__(self):
        self.a = np.linspace(1.0, 2.0, STREAM_N)
        self.b = self.a[::-1].copy()
        self.c = np.empty(STREAM_N)

    def __call__(self):
        np.multiply(self.a, self.b, out=self.c)
        np.add(self.c, self.a, out=self.c)
        return float(self.c[0])


def probe_time(fn, reps):
    """Median time of reps calls of fn, in seconds."""
    clock = time.perf_counter
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)
