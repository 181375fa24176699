"""The timed pass: a closed loop with one client and a per-operation cap.

Every operation starts only after the previous one returns. A cycle is
one run through a workload's fixed operation list; a pass repeats whole
cycles so that every pass measures the same mix. The cap is a wall-clock
timer in the main thread (SIGALRM): an operation that outlives it is
interrupted, recorded as a timeout and counted as failed, so a cliff
never hangs the run.

A workload (wl_*.py) provides `cap` (seconds per operation), `cycle()`
(fresh zero-argument callables, one per operation), `render(result)`
(the text compared between cycles and passes), `check(results)` (one
oracle verdict per first-cycle operation, None when correct) and
`op_kinds()` (the reference slice kind per operation, see speed.py).
"""

from __future__ import annotations

import signal
import time


class OpTimeout(BaseException):
    """Raised into an operation that hit its cap. A BaseException, so
    that library code catching Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class OpResult:
    __slots__ = ("status", "value", "seconds")

    def __init__(self, status, value, seconds):
        self.status = status  # "ok", "error" (unpredicted exception) or "timeout"
        self.value = value
        self.seconds = seconds


def call_capped(fn, cap):
    """Run fn() under a wall-clock cap; returns an OpResult."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        t0 = time.perf_counter()
        try:
            value = fn()
            status = "ok"
        except OpTimeout:
            value, status = None, "timeout"
        except Exception as err:  # an exception the oracle did not predict
            value, status = err, "error"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
    except OpTimeout:  # the alarm fired between return and disarm
        value, status, seconds = None, "timeout", cap
    finally:
        signal.signal(signal.SIGALRM, previous)
    return OpResult(status, value, seconds)


def field_caches():
    """The process-wide caches of fqtower (make_field and the embedding
    roots), captured before any tracing wrapper replaces them, so that
    every cycle can start from cold caches."""
    from perffield import fqtower

    return (fqtower.make_field, fqtower._embedding_root_cached)


def clear(caches):
    for cache in caches:
        cache.cache_clear()


class PassResult:
    def __init__(self):
        self.cycles = 0
        self.wall = 0.0
        self.cycle_walls = []
        self.latencies = []  # per cycle, per op seconds
        self.mids = []  # per cycle, per op perf_counter() at the op's midpoint
        self.first = []  # OpResults of the first cycle, for the oracles
        self.rendered = []  # rendered outputs of the first cycle
        self.statuses = []  # per cycle, per op status
        self.mismatches = []  # per cycle, ops whose output differs from the first cycle's

    @property
    def attempted(self):
        return sum(len(c) for c in self.latencies)

    def failures(self, verdicts):
        """Per cycle, (failed, timeouts, wrong), given the oracle's verdict
        (None when correct) on each first-cycle operation."""
        out = []
        for statuses, mismatched in zip(self.statuses, self.mismatches):
            timeouts = sum(s == "timeout" for s in statuses)
            wrong = sum(
                s != "timeout" and (s != "ok" or verdicts[i] is not None or i in mismatched)
                for i, s in enumerate(statuses)
            )
            out.append((timeouts + wrong, timeouts, wrong))
        return out

    def tally(self, verdicts):
        """(failed, timeouts, wrong) summed over every cycle."""
        return tuple(map(sum, zip(*self.failures(verdicts))))


def run_pass(workload, seconds, cycles=None, side_tasks=(), speed=None):
    """Repeat whole cycles of the workload. Without a fixed cycle count,
    stop once another cycle would take the measured time past `seconds`.

    side_tasks are callables run one at a time between operations,
    spread evenly over the pass and left out of its timing. Samples
    taken this way (fresh processes for set-up and cold start) see the
    same drift in machine speed as the pass does, not one moment of it.

    speed, a speed.SpeedLog, takes reference slices between operations,
    at the start and every speed.every seconds of operations, also left
    out of the pass's timing.
    """
    out = PassResult()
    pending = list(side_tasks)
    step = seconds / (len(pending) + 1)
    due = step
    since_slice = float("inf")
    while True:
        c0 = time.perf_counter()
        paused = 0.0
        results, mids = [], []
        for fn in workload.cycle():
            if speed is not None and since_slice >= speed.every:
                t0 = time.perf_counter()
                speed.sample()
                paused += time.perf_counter() - t0
                since_slice = 0.0
            t0 = time.perf_counter()
            res = call_capped(fn, workload.cap)
            results.append(res)
            mids.append(t0 + res.seconds / 2)
            since_slice += res.seconds
            if pending and out.wall + time.perf_counter() - c0 - paused >= due:
                t0 = time.perf_counter()
                pending.pop(0)()
                paused += time.perf_counter() - t0
                due += step
        last = time.perf_counter() - c0 - paused
        out.wall += last
        out.cycles += 1
        out.cycle_walls.append(last)
        out.latencies.append([r.seconds for r in results])
        out.mids.append(mids)
        out.statuses.append([r.status for r in results])
        rendered = [workload.render(r) for r in results]
        if out.cycles == 1:
            out.first = results
            out.rendered = rendered
        out.mismatches.append(
            {i for i, (a, b) in enumerate(zip(rendered, out.rendered)) if a != b}
        )
        if cycles is not None:
            done = out.cycles >= cycles
        else:
            done = out.wall + last > seconds
        if done:
            for task in pending:
                task()
            if speed is not None:
                speed.sample()
            return out
