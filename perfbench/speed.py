"""Timing that factors out the host's current speed.

On a shared machine the speed of one core changes by up to 2.6x, on
timescales from under a second to many minutes, so two runs of the same
code minutes apart can differ by more than any useful bound.  The
benchmark therefore runs a fixed pure-Python probe, which depends on no
ccss code, between the operations it times, at least every
PROBE_EVERY_S seconds.  An operation timed over [t0, t1) is rescaled by
the probe's duration interpolated at the operation's midpoint:

    normalised seconds = raw seconds * (REFERENCE_S / probe duration) ** ELASTICITY

so a normalised figure reads as seconds at the speed at which the probe
takes REFERENCE_S.  The probe builds tuples, small objects, dicts and
frozensets and stays in the processor's caches, so it slows down fully
with the host.  ccss walks large heaps of terms and states and slows down
less: ELASTICITY is how much less, the slope of log(operation time) on
log(probe time) over the benchmark's operations on the reference
machine.  A change to ccss moves only the raw time and so moves the
normalised figure in proportion.
"""

from __future__ import annotations

import bisect
import gc
from time import perf_counter

# A typical probe duration on the reference machine, a 2-vCPU x86_64 VM
# running CPython 3.11.7.
REFERENCE_S = 0.017
# Measured there over 296 operations (safety checks of filter N=3 and
# bakery, bisimulation queries) while the probe took 10 to 26 ms: 0.43
# to 0.85 per kind of operation, 0.65 pooled.  It left a residual spread
# (standard deviation of log time) of 0.107, against 0.175 for raw times
# and 0.130 for full rescaling (an elasticity of 1).
ELASTICITY = 0.65
PROBE_EVERY_S = 0.25  # the probe takes 2 to 5 % of a run


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _probe():
    table = {}
    seen = set()
    for i in range(16000):
        key = (i & 63, i >> 6)
        table[key] = _Pair(key, i & 7)
        seen.add(frozenset((i & 31, i & 7)))
    return len(table) + len(seen)


class Speed:
    """Probe samples over one run: (midpoint, duration)."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._last = None

    def probe(self):
        enabled = gc.isenabled()
        gc.disable()  # the probe never pays for a collection of ccss objects
        try:
            t0 = perf_counter()
            _probe()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe_probe(self):
        """Probe when PROBE_EVERY_S have passed since the last probe."""
        if self._last is None or perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def at(self, t):
        """The probe duration at time t, interpolated linearly between the
        probes around it (the nearest one outside their range)."""
        k = bisect.bisect_left(self.times, t)
        if k == 0:
            return self.durations[0]
        if k == len(self.times):
            return self.durations[-1]
        ta, tb = self.times[k - 1], self.times[k]
        da, db = self.durations[k - 1], self.durations[k]
        return da + (db - da) * (t - ta) / (tb - ta)

    def normalise(self, t0, t1):
        """Seconds at the reference speed of an operation timed [t0, t1)."""
        return (t1 - t0) * (REFERENCE_S / self.at((t0 + t1) / 2)) \
            ** ELASTICITY

    def median_probe(self):
        durations = sorted(self.durations)
        return durations[len(durations) // 2]
