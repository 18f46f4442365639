"""Machine speed, sampled while the commands run, so that their times can be
given at one fixed speed.

On a shared host the same pure-Python code runs up to 1.6 times slower for
seconds at a time, and the slow stretches come and go over the length of a
run, so the raw time of a run says as much about the host as about the
program.  ``SpeedSampler`` measures the host's speed during the very
intervals the program runs in: a wall-clock interval timer (``SIGALRM``)
interrupts the process every ``INTERVAL_S`` seconds, and the handler times a
fixed pure-Python reference loop (list indexing through a function call,
dict updates and small-int arithmetic, the mix of the program's Engel and
table loops).  The handler runs between bytecodes of whatever the program is
doing, so the samples are spread evenly over its wall time.

For a set of intervals, ``measure`` takes their time less the handler's own,
and multiplies it by the mean over the samples inside them of
``NOMINAL_S / sample``: the intervals' mean speed relative to a host on
which the reference loop takes ``NOMINAL_S``.  The result is the program's
work in seconds at that speed: it moves when the program does more or less
work, and much less when the host slows down.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
REF_STEPS = 600
# A round figure near the reference loop's time on the 2-core host of the
# README's reference figures; any fixed value would do, it only sets the scale.
NOMINAL_S = 2.0e-4

_TABLE = [[(a * 7 + b * 3) % 64 for b in range(64)] for a in range(64)]


def _step(x: int, y: int) -> int:
    return _TABLE[x][y]


def reference_loop() -> int:
    seen: dict[int, int] = {}
    acc = 0
    x = 1
    for i in range(REF_STEPS):
        x = _step(x, i & 63)
        seen[x] = seen.get(x, 0) + 1
        acc += (i * x) % 7
    return acc


class SpeedSampler:
    """Times ``reference_loop`` every ``INTERVAL_S`` of wall time while
    started.  Samples are ``(start, seconds)`` pairs in ``perf_counter``
    time, in order."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def measure(self, intervals: list[tuple[float, float]]) -> tuple[float, float]:
        """The ``(start, end)`` intervals' time less the handler's, and the
        work done in them in seconds at the speed at which the reference
        loop takes ``NOMINAL_S``."""
        starts = [s for s, _ in self.samples]
        spent, inside = 0.0, []
        for lo, hi in intervals:
            spent += hi - lo
            first, last = bisect.bisect_left(starts, lo), bisect.bisect_left(starts, hi)
            inside += [d for _, d in self.samples[first:last]]
        if not inside:
            raise RuntimeError("no speed samples inside the timed intervals")
        speed = sum(NOMINAL_S / d for d in inside) / len(inside)
        net = spent - sum(inside)
        return net, net * speed
