"""Host-speed-normalised phase timing.

On a shared cloud host the same pure-Python work runs up to 30% slower
from one minute to the next, and the slowdown persists for tens of
seconds, so medians over longer runs do not remove it.  What does: timing
a fixed calibration chunk interleaved with the program at a fine grain.
Code that runs within a few tens of milliseconds of each other sees the
same host speed, so the ratio of the two holds steady when each alone
does not.

:class:`NormalizedClock` runs around one timed phase.  A one-shot
``SIGALRM`` timer interrupts the program every :data:`SLICE_S` wall
seconds; the handler times one :func:`calibration_chunk` and re-arms the
timer.  The handler touches no program state, so the program behaves as it
would without it (the counters ``run.py`` records check that), and it
allocates only a few small objects per tick, against the millions the
program allocates, so the cyclic collector runs at nearly the same points.
Each program slice (the wall time between two chunks) is divided by the
mean of the two chunks around it and multiplied by
:data:`REFERENCE_CHUNK_S`: the phase's time in *reference seconds*, the
seconds it would take on a host that runs one chunk in exactly that time.
Raw wall time is kept next to it.

The process runs single-threaded throughout: the timer interrupts the
main thread, which runs the handler between two bytecodes.
"""

from __future__ import annotations

import signal
from time import perf_counter
from typing import List

#: Wall seconds of program time between two calibration chunks.
SLICE_S = 0.05
#: Iterations of one calibration chunk (about 3 ms, 6% of a slice).
CHUNK_LOOPS = 2_800
#: Wall seconds one chunk takes on the reference host.  It only sets the
#: scale: about the median chunk inside the benchmark's phases on a 2-vCPU
#: x86-64 cloud VM under CPython 3.11 (the program's working set evicts
#: the chunk's, which alone runs in about half the time).
REFERENCE_CHUNK_S = 3.0e-3

#: The chunk's working set, about 11 MB: a table of integers and a dict
#: keyed by strings.  Read at pseudo-random positions, it makes the chunk
#: feel the cache and memory contention of a shared host as the program
#: does; with a table of 1024 entries, phase times normalised by it
#: spread a third more between passes of the same seed.
_TABLE = list(range(1 << 18))
_NAMES = {str(index): index for index in range(1 << 14)}
_KEYS = list(_NAMES)


def calibration_chunk() -> int:
    """A fixed piece of interpreter work: integer arithmetic, list
    indexing and dict lookups, with no allocation of tracked objects."""
    table, names, keys = _TABLE, _NAMES, _KEYS
    position, acc = 1, 0
    for _ in range(CHUNK_LOOPS):
        position = (position * 1103515245 + 12345) & 0x3FFFF
        acc = (acc + table[position] + names[keys[position & 0x3FFF]]) \
            & 0xFFFF
    return acc


def time_chunk() -> float:
    started = perf_counter()
    calibration_chunk()
    return perf_counter() - started


class NormalizedClock:
    """Context manager timing one phase in wall and reference seconds::

        with NormalizedClock() as clock:
            run()
        clock.wall_s, clock.reference_s
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        #: Wall time of each calibration chunk, and of the program slice
        #: before it (the first chunk runs before the program starts).
        self.chunks: List[float] = []
        self.slices: List[float] = []
        self._slice_started = 0.0
        self._previous = None
        self._running = False

    def _tick(self, signum=None, frame=None) -> None:
        if not self._running:
            return
        now = perf_counter()
        self.slices.append(now - self._slice_started)
        self.chunks.append(time_chunk())
        self._slice_started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)

    def __enter__(self) -> "NormalizedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self.chunks.append(time_chunk())
        self._slice_started = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SLICE_S)
        return self

    def __exit__(self, *exc) -> None:
        # A tick already pending may still run after the timer is stopped:
        # it must neither re-arm it (the alarm would outlive the handler)
        # nor count the last slice twice.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        ended = perf_counter()
        self.slices.append(ended - self._slice_started)
        signal.signal(signal.SIGALRM, self._previous)
        self.chunks.append(time_chunk())
        self.wall_s = sum(self.slices)
        self.reference_s = sum(
            program_s * REFERENCE_CHUNK_S * 2.0 / (before + after)
            for program_s, before, after
            in zip(self.slices, self.chunks, self.chunks[1:]))
