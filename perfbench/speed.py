"""Host speed, sampled while the program runs, to scale host timings.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 2-3x over seconds to minutes (other tenants, frequency), and the
process is slowed, not descheduled: its CPU time grows with its wall
time.  Wall time alone then measures the host as much as the program.

A :class:`Speedometer` times a fixed calibration kernel from a timer
signal every ``interval`` seconds of a timed section, on the same thread
and core as the program, between the program's own steps.  The kernel
is the benchmark's own code, so a change to the program cannot move it.
A :class:`Reading` is the section's wall time minus the kernel's, and
the kernel's mean time in that section over ``REFERENCE_KERNEL_SECONDS``:
the host's slowdown against the reference host, by which the section's
time is divided.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import signal
from time import perf_counter
from typing import List, NamedTuple

import numpy

#: mean kernel time, called between the program's steps, that defines
#: the reference host's speed (about that of a 2-core Xeon VM, Python
#: 3.11.7, numpy 2.4.6, when lightly loaded)
REFERENCE_KERNEL_SECONDS = 250e-6
#: timer period; the kernel then costs 1-3% of a timed section
INTERVAL_SECONDS = 0.02


class _Event:
    __slots__ = ("time", "kind")


#: a population of objects larger than the core's private caches, as the
#: program's plans, queries and events are
_EVENTS = [_Event() for _ in range(50_000)]
for _index, _event in enumerate(_EVENTS):
    _event.time = (_index * 7919) % 50_000 * 1e-3
    _event.kind = _index % 7
_ORDER = [(_index * 40_503) % 50_000 for _index in range(200)]
_VECTOR = numpy.arange(2048.0)


def kernel() -> float:
    """A fixed mix of the work the program spends its time on: an event
    heap over scattered objects, dict updates, and a small numpy call.

    Its result is discarded.  It runs with the garbage collector off and
    frees what it allocates, so that a collection of the program's heap
    never lands in its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        heap: list = []
        totals: dict = {}
        for index in _ORDER:
            heapq.heappush(heap, (_EVENTS[index].time, index))
        while heap:
            time, index = heapq.heappop(heap)
            kind = _EVENTS[index].kind
            totals[kind] = totals.get(kind, 0.0) + time
        counts: dict = {}
        for i in range(150):
            heapq.heappush(heap, ((i * 7919) % 1009) << 10 | i)
            counts[i & 255] = counts.get(i & 255, 0) + i
        while heap:
            heapq.heappop(heap)
        return float((_VECTOR * 1.5 + 2.0).sum()) + totals[0]
    finally:
        if enabled:
            gc.enable()


class Reading(NamedTuple):
    """One timed section."""

    #: wall time of the section minus the kernel's share of it
    wall: float
    #: mean kernel time over the section, in reference-kernel units
    slowdown: float
    samples: int

    @property
    def seconds(self) -> float:
        """The section's time on the reference host."""
        return self.wall / self.slowdown


class Speedometer:
    """Samples the kernel's time during timed sections."""

    def __init__(self, interval: float = INTERVAL_SECONDS):
        self.interval = interval
        self._times: List[float] = []

    def _sample(self, *_) -> None:
        start = perf_counter()
        kernel()
        self._times.append(perf_counter() - start)

    @contextlib.contextmanager
    def section(self, readings: List[Reading]):
        """Time the ``with`` body; append its :class:`Reading`."""
        self._times = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self._times)
        if not self._times:
            # shorter than one period: sample once, right after it
            self._sample()
        mean = sum(self._times) / len(self._times)
        readings.append(Reading(wall - inside,
                                mean / REFERENCE_KERNEL_SECONDS,
                                len(self._times)))
