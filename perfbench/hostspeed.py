"""The host's speed, read from a fixed reference loop between timed calls.

The benchmark runs on a shared host whose speed swings by up to 2x for
seconds or minutes at a time: the same work, run twice, takes up to twice
as much of the thread's CPU time.  ``SpeedProbe`` runs ``reference_work``
(a fixed mix of the interpreter and numpy work the engine does, which
never touches scpm) at most once per ``EVERY_NS`` of CPU time, between the
workload's calls.  A cycle's speed factor is the mean of its reference
times over ``REFERENCE_NS``; a time
divided by it is the time the same work would have taken at the reference
speed.  No engine change can move the reference loop, so an engine change
still moves the adjusted times as it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# Mean CPU time of ``reference_work`` on a quiet 2-vCPU Intel Xeon host
# (Python 3.11, numpy 2.4).  Adjusted times read as times on that host.
REFERENCE_NS = 275_000.0
# About 3% of the run goes to the reference loop.
EVERY_NS = 10_000_000

_SMALL = np.linspace(0.1, 1.0, 3)
_WIDE = np.linspace(-1.0, 1.0, 1024)


def reference_work():
    """About 0.3 ms of small-vector numpy calls, float arithmetic in the
    interpreter, and a few 1024-vector passes."""
    x = _SMALL.copy()
    acc = 0.0
    for _ in range(40):
        y = np.exp(x * 0.5)
        s = float(y.sum())
        acc += float(np.log(s)) + float(y @ x)
        x = x + 1e-3
        for j in range(12):
            acc += j * 0.5 - acc * 1e-9
    w = _WIDE
    for _ in range(8):
        w = np.tanh(w * 0.999)
        acc += float(w @ w)
    return acc


class SpeedProbe:
    def __init__(self):
        self.samples = []
        self._last = 0

    def sample(self):
        t0 = time.thread_time_ns()
        reference_work()
        t1 = time.thread_time_ns()
        self.samples.append(t1 - t0)
        self._last = t1

    def maybe(self):
        if time.thread_time_ns() - self._last >= EVERY_NS:
            self.sample()

    def factors(self, marks):
        """Speed factor of each stretch of the run; ``marks[c]`` is the
        number of samples taken by the end of stretch c."""
        bounds = [0] + list(marks)
        return np.array([np.mean(self.samples[a:b]) for a, b in zip(bounds, bounds[1:])]
                        ) / REFERENCE_NS
