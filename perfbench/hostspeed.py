"""Host-speed reference: scales measured times to a fixed machine speed.

The benchmark shares a small virtual machine with other tenants.  Its
speed switches between states up to 1.8x apart that last from seconds to
minutes, far longer than averaging within a run can remove, and every
kind of Python code slows down together: over 10 s windows, a fixed
``Fraction`` summation tracked the CLI commands' slowdown with correlation
0.98.  So while it times commands, the benchmark also times that fixed
reference task, interleaved with them, and divides one by the other.

``Sampler`` runs the reference task from a ``SIGALRM`` handler every
``INTERVAL`` seconds of wall time, so its samples fall evenly over the
measured commands, long or short, and records how long the handler took,
which the caller subtracts from the command it interrupted.  ``scale``
turns a measured time into the time it would take on a machine that runs
the reference task in ``REFERENCE_MS``: measured * REFERENCE_MS / mean
reference time, the mean taken over the samples during the command and
``PAD`` seconds either side of it, so a command is scaled by the state
the machine was in while it ran.  The reference task uses only the
standard library, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_MS = 0.5  # the reference task's time on a 2.1 GHz Xeon VM, fast state
INTERVAL = 0.02  # seconds of wall time between reference samples
PAD = 0.1  # seconds either side of a command whose samples also scale it

_RNG = random.Random("perfbench-reference")
_TERMS = [Fraction(_RNG.randint(1, 1000), _RNG.randint(1001, 5000)) for _ in range(150)]


def reference_task() -> Fraction:
    total = Fraction(0)
    for term in _TERMS:
        total += term
    return total


def time_reference(repeats: int) -> float:
    """Mean seconds of ``repeats`` reference tasks run back to back."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_task()
    return (time.perf_counter() - start) / repeats


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` at the reference speed, given the mean reference time."""
    return seconds * (REFERENCE_MS / 1e3) / reference_s


class Sampler:
    """Times the reference task every INTERVAL seconds while active."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.samples: list[float] = []  # seconds each sample took
        self.spent = 0.0  # seconds spent in the handler so far
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        reference_task()
        took = time.perf_counter() - start
        self.times.append(start)
        self.samples.append(took)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """``time.perf_counter`` less the time spent in the handler."""
        return time.perf_counter() - self.spent

    def reference_s(self) -> float:
        """Mean reference time over the samples, evenly spread in time."""
        return statistics.fmean(self.samples)

    def reference_near(self, start: float, end: float) -> float:
        """Mean reference time from ``start - PAD`` to ``end + PAD``; the
        mean over all samples if none fell there."""
        lo = bisect.bisect_left(self.times, start - PAD)
        hi = bisect.bisect_right(self.times, end + PAD)
        return statistics.fmean(self.samples[lo:hi]) if hi > lo else self.reference_s()
