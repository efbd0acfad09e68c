"""The speed of the CPU a process runs on, sampled while it works.

On a shared host the same Python code runs 10-50 % slower or faster from
one second to the next, as other tenants come and go.  A Speedometer
measures that in the process whose time is being taken: on every
INTERVAL_S of the process's CPU time, a SIGPROF handler runs one burst,
a fixed piece of pure-Python work of the kind the library does (tuple
subclasses, dict memo tables, Fractions, sorting), and records how long
it took.  Time spent in bursts is subtracted from what is measured, and
the rest is scaled to the reference speed, at which one burst takes
REF_BURST_S:

    calibrated = (elapsed - time in bursts) * REF_BURST_S / typical burst

The burst never calls quivermoduli, so a change to the library cannot
change the yardstick.  Standard library only.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction
from itertools import product

INTERVAL_S = 0.03  # process CPU time between bursts
EDGE_BURSTS = 3  # bursts at start() and at stop(), so a short process has enough
# The median burst inside a working process on a 2-vCPU Intel Xeon VM
# (Python 3.11) in a quiet minute.  Calibrated times are seconds at that speed.
REF_BURST_S = 0.0015
NEAREST = 7  # bursts behind the speed of an interval with fewer inside it


class Vec(tuple):
    def __new__(cls, entries):
        return super().__new__(cls, entries)

    def __sub__(self, other):
        return Vec(a - b for a, b in zip(self, other))

    def leq(self, other):
        return all(a <= b for a, b in zip(self, other))


def _chains(rest, bound, slopes, memo) -> int:
    if not any(rest):
        return 1
    key = (rest, bound)
    hit = memo.get(key)
    if hit is not None:
        return hit
    n = 0
    for e, mu in slopes.items():
        if (bound is None or mu < bound) and e.leq(rest):
            n += _chains(rest - e, mu, slopes, memo)
    memo[key] = n
    return n


def burst() -> int:
    """Fixed work: chains of vectors below (2, 2, 1) with decreasing slopes.

    Runs with the cyclic garbage collector paused and leaves no cycles, so
    a collection of the measured program's heap never lands in a burst.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        theta = (5, -1, -4)
        pieces = [Vec(e) for e in product(range(3), range(3), range(2)) if any(e)]
        slopes = {e: Fraction(sum(a * b for a, b in zip(theta, e)), sum(e)) for e in pieces}
        memo: dict = {}
        n = _chains(Vec((2, 2, 1)), None, slopes, memo)
        return n + len(sorted(memo, key=lambda k: (sum(k[0]), k[0])))
    finally:
        if paused:
            gc.enable()


def typical(times: list[float]) -> float:
    """Mean burst time, a tenth cut off at each end (one each from 5 on).

    Bursts come at even steps of the process's CPU time, so their mean
    tracks the mean slowdown of the work between them."""
    ordered = sorted(times)
    cut = max(len(ordered) // 10, 1 if len(ordered) >= 5 else 0)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Speedometer:
    """Bursts on SIGPROF from start() to stop(); see the module docstring."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.stamps: list[float] = []  # perf_counter at each burst's start
        self.times: list[float] = []  # each burst's duration
        self.spent = 0.0  # seconds spent in bursts so far
        self.running = False

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        burst()
        took = time.perf_counter() - t0
        self.stamps.append(t0)
        self.times.append(took)
        self.spent += took

    def start(self) -> None:
        self.running = True
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        for _ in range(EDGE_BURSTS):
            self.sample()

    def stop(self) -> None:
        """Stop sampling; a second call does nothing."""
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        for _ in range(EDGE_BURSTS):
            self.sample()

    def burst_near(self, a: float, b: float) -> float:
        """Typical burst time over [a, b], or over the NEAREST bursts
        around it when fewer than that fall inside."""
        i = bisect.bisect_left(self.stamps, a)
        j = bisect.bisect_right(self.stamps, b)
        if j - i < NEAREST:
            j = min(len(self.times), (i + j) // 2 + NEAREST // 2 + 1)
            i = max(0, j - NEAREST)
        return typical(self.times[i:j])

    def calibrated(self, elapsed: float, a: float, b: float) -> float:
        """Seconds of work over [a, b], less `elapsed`'s burst time already
        taken out, at the reference speed."""
        return elapsed * REF_BURST_S / self.burst_near(a, b)

    def summary(self) -> dict:
        return {"bursts": len(self.times), "spent": self.spent, "typical": typical(self.times)}


def calibrated_process(wall: float, summary: dict) -> float:
    """A whole child process's wall time at the reference speed, from the
    summary its Speedometer reported."""
    return (wall - summary["spent"]) * REF_BURST_S / summary["typical"]
