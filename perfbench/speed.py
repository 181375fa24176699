"""Reference slices: the machine's speed, measured next to every operation.

On a shared host the CPU runs for stretches of seconds to minutes up to
twice as slow as its best, and whole runs can fall inside one stretch,
so no estimator over a run's own repetitions keeps its timings steady.
The timed pass therefore runs a short, fixed reference slice every
EVERY seconds, between operations and outside their timing. The code of
a slice does not touch perffield, so no change to perffield moves it;
only the machine does.

Each operation's time is then scaled by the median of the eight slices
nearest to it (four before, four after), as a share of the slice's
nominal time: a figure in ms reads as ms on the machine in its fast
state. There are two kinds of slice, because interpreter-bound and
array-bound code slow down by different factors in the slow state:
"python" (dict and int work in the interpreter) and "numpy" (batched
modular products on int64 arrays, like the _accel kernels). Each
workload names the kind that matches each of its operations.

A set-up time, taken in a fresh process, is scaled by slices that the
same process takes right after it (slice_factor).

Nominal times are the slices' fast-state times on a 2-core x86-64 host
with CPython 3.11 and numpy 2.4. They fix the units only: a comparison
between two commits on one machine does not depend on them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

EVERY = 0.02  # seconds of operations between two rounds of slices
NEAREST = 4  # slices used on each side of an operation


def python_slice():
    acc, table = 0, {}
    for i in range(3000):
        acc += i * i % 7
        table[i & 127] = acc
    return acc


_ROWS = np.arange(512 * 8, dtype=np.int64).reshape(512, 8) % 13


def numpy_slice():
    acc = _ROWS
    for _ in range(3):
        acc = (acc[:, :, None] * _ROWS[:, None, :]).sum(axis=2) % 13
    return acc


KINDS = {
    "python": (python_slice, 0.00032),
    "numpy": (numpy_slice, 0.00085),
}


def slice_factor(kind="python", slices=16):
    """How much slower than nominal this process runs now: the median
    of a few slices taken back to back."""
    log = SpeedLog([kind])
    for _ in range(slices):
        log.sample()
    return statistics.median(log.took[kind]) / KINDS[kind][1]


class SpeedLog:
    """Slices of the given kinds, each with the time it was taken."""

    every = EVERY

    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        self.at = {k: [] for k in self.kinds}
        self.took = {k: [] for k in self.kinds}

    def sample(self):
        """One slice of each kind, with the collector held off so that
        garbage left by operations is not paid for inside a slice."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for kind in self.kinds:
                fn = KINDS[kind][0]
                t0 = time.perf_counter()
                fn()
                t1 = time.perf_counter()
                self.at[kind].append((t0 + t1) / 2)
                self.took[kind].append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def factor(self, kind, t):
        """How much slower than nominal the machine ran around time t."""
        at, took = self.at[kind], self.took[kind]
        j = bisect.bisect(at, t)
        near = took[max(0, j - NEAREST): j + NEAREST]
        return statistics.median(near) / KINDS[kind][1]

    def scale(self, kind, t, seconds):
        return seconds / self.factor(kind, t)
