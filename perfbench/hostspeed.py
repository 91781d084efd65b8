"""Host-speed calibration for the timing metrics.

The benchmark's host is a shared virtual machine whose speed swings by up
to a factor two, in phases that last from seconds to minutes.  Repeating
passes within a run cannot remove a phase that covers the whole run, so
each timed call is scaled to reference-host seconds: a fixed calibration
is timed at least every interval, and a call's time is multiplied by the
calibration's reference time over the mean of its times just before and
just after the call.  Calibrations use no dprkit code, so a change to the
program does not move them.  In-process calls are scaled by `_loop`; the
benchmark scales process launches by a bare interpreter launch instead
(see run.py), because start-up is kernel and loader work that host load
slows by other factors than interpreted code.
"""

from __future__ import annotations

import bisect
import time

INTERVAL_S = 0.1


def _loop() -> int:
    """Dict stores and integer arithmetic, like most of dprkit's time."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc


# the loop's time at full speed on the reference host (a 2-vCPU VM, Python 3.11)
REFERENCE_S = 0.0085


class Clock:
    """Times calls and scales each to reference-host seconds.

    `loop` is the calibration, `reference_s` its time at full speed on the
    reference host and `interval_s` the most time between calibrations."""

    def __init__(self, loop=_loop, reference_s: float = REFERENCE_S,
                 interval_s: float = INTERVAL_S):
        self._loop = loop
        self._reference_s = reference_s
        self._interval_s = interval_s
        self._starts: list[float] = []
        self._lengths: list[float] = []

    def calibrate(self, force: bool = False) -> None:
        """Time the loop, unless the last calibration is under interval_s old."""
        now = time.perf_counter()
        if force or not self._starts or now - self._starts[-1] >= self._interval_s:
            start = time.perf_counter()
            self._loop()
            self._lengths.append(time.perf_counter() - start)
            self._starts.append(start)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, in reference-host seconds; needs
        a calibration before `start` and one after the call ended."""
        after = bisect.bisect_left(self._starts, start + seconds)
        before = after - 1
        while before >= 0 and self._starts[before] > start:
            before -= 1
        if before < 0 or after >= len(self._starts):
            raise ValueError("no calibration brackets the call")
        loop_s = (self._lengths[before] + self._lengths[after]) / 2
        return seconds * self._reference_s / loop_s

    def timed(self, fn):
        """Call fn between two calibrations: (result, seconds, scaled seconds)."""
        self.calibrate()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.calibrate(force=True)
        return result, seconds, self.scale(start, seconds)
