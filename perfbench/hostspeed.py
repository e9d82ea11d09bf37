"""A fixed probe of the host's speed, sampled while a run is timed.

The sizing host's CPU speed moves by 20-35% within seconds and between
minutes (it is shared), and CPU time equals wall time, so the drift is
in the host, not in scheduling.  Probes timed only before and after a
run miss the swings inside it.  ``Sampler`` therefore interleaves the
probe with the run: a ``SIGALRM`` timer fires every ``INTERVAL_S``
and its handler runs one probe unit, a fixed pure-Python event loop
(dict lookups, a method call, float arithmetic and a heap, as in the
engines' drain loops).  The probe imports nothing from the program, so
no change to the program moves it.

``run.py`` subtracts the probe's own time from the run's wall time and
rescales the rest by ``REFERENCE_UNIT_S / median unit time``: the run's
time at the sizing host's speed.  A set-up lasts milliseconds, too short
for the timer, so it is rescaled by ``unit_now()``, a few probe units
run just before it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any, List

#: the median time of one probe unit on the sizing host (see METHOD.md)
REFERENCE_UNIT_S = 0.001

#: the probe fires this often while a run is timed
INTERVAL_S = 0.025


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def add(self, delta: float) -> float:
        self.value += delta
        return self.value


def probe_unit() -> float:
    """The fixed work; returns a checksum so nothing is optimized away."""
    cells = {}
    heap: List[Any] = []
    total = 0.0
    for i in range(700):
        key = (i * 7919) % 211
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _Cell()
        total += cell.add(0.85 * (i & 1023) / 1024.0)
        heapq.heappush(heap, (key, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return total


def time_unit() -> float:
    """Run one probe unit; returns its wall time in seconds."""
    start = time.perf_counter()
    probe_unit()
    return time.perf_counter() - start


def unit_now(units: int = 5) -> float:
    """The median time of a few probe units run now."""
    return statistics.median(time_unit() for _ in range(units))


class Sampler:
    """Time one probe unit every ``INTERVAL_S`` inside a ``with`` block.

    Only for the main thread of a process.  ``units`` holds each unit's
    time.  A blocking system call that the timer interrupts is retried
    by Python (PEP 475), so the run under it behaves as without it.
    """

    def __init__(self) -> None:
        self.units: List[float] = []
        self._previous: Any = None

    def _tick(self, signum: int, frame: Any) -> None:
        self.units.append(time_unit())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def probe_s(self) -> float:
        """Time spent in the probe itself."""
        return sum(self.units)

    @property
    def unit_s(self) -> float:
        """The median unit time: the host's speed during the run."""
        return statistics.median(self.units)
