"""Host-speed calibration: every reported time is in reference seconds.

The small shared hosts this benchmark targets do not run at one speed.
Each virtual CPU flips between a fast and a slow state (about 2x apart)
every tenth of a second or so, independently of the other CPU, and the
share of slow time drifts over tens of seconds.  A fixed pure-Python
loop timed for 150 s and cut into 25-s windows gave window medians
whose interquartile distance was 25% of their median, so longer runs do
not average the drift out.

The benchmark therefore times a fixed calibration loop (this file's
:func:`calibrate`, never the program) *inside* each measured interval and
reports

    reference seconds = wall seconds x REFERENCE_S / mean calibration round

— the time the interval would have taken on a host where one round
takes :data:`REFERENCE_S`.  Over four minutes of repeated operations in
one process, this brought the interquartile spread of a 0.4-s serial
chunk pass from 17% (wall) to 6%, and of 0.3-0.7-s strategy sweeps from
15% to 7-8%; the medians a run reports spread less.  A change to the
program moves reference seconds exactly as it moves wall seconds; only
the host's speed is divided out.  Workloads print wall times beside
them.
"""

from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from typing import Dict, List, Sequence

#: One calibration round on the reference host, seconds, and its
#: in-cache half alone.  Constants of the benchmark: changing one
#: rescales every time reported against it.
REFERENCE_S = 0.006
REFERENCE_CACHED_S = 0.0033

#: Loop iterations per calibration round: a small working set, then a
#: large one (the two halves take about the same time).
_SMALL_ITERATIONS = 3500
_LARGE_ITERATIONS = 2600
_LARGE_ENTRIES = 1 << 16

#: Seconds between host-speed samples inside a measured interval.
SAMPLE_PERIOD_S = 0.05


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


_large: Dict[int, _Cell] = {}


def _small_loop() -> int:
    """Object allocation, attribute and dict access, arithmetic, calls
    and a little hashing, in a working set that stays in cache."""
    table = {}
    acc = 0
    for i in range(_SMALL_ITERATIONS):
        cell = _Cell(i, i & 7)
        table[i & 1023] = cell
        other = table.get((i * 7) & 1023)
        acc += other.a if other is not None else cell.b
        if i % 64 == 0:
            acc ^= hashlib.sha256(i.to_bytes(8, "little")).digest()[0]
    return acc


def _large_loop() -> int:
    """Scattered reads and writes over a few megabytes of objects, which
    slow down with the cache and memory contention the program feels
    and the small loop does not."""
    acc = 0
    j = 12345
    for i in range(_LARGE_ITERATIONS):
        j = (j * 1103515245 + 12345) & (_LARGE_ENTRIES - 1)
        cell = _large[j]
        acc += cell.a
        cell.b = acc & 255
        if i % 64 == 0:
            acc ^= hashlib.sha256(i.to_bytes(8, "little")).digest()[0]
    return acc


def calibrate(cached_only: bool = False) -> float:
    """Seconds one calibration round takes now: both loops, or with
    ``cached_only`` the in-cache loop alone.  Neither loop alone tracked
    every workload: on repeated operations the sum kept the spread of
    wall time / mean round lowest across the serial passes, sweeps and
    verify calls.  The collector is off during the round, so a full
    collection of the program's heap never lands in it."""
    if not (_large or cached_only):
        _large.update((i, _Cell(i, i & 7)) for i in range(_LARGE_ENTRIES))
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _small_loop()
        if not cached_only:
            _large_loop()
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def scale(rounds: Sequence[float], reference: float = REFERENCE_S) -> float:
    """Factor from wall to reference seconds, given calibration rounds
    taken while the work ran (the mean, since rounds are a mixture of
    the host's fast and slow states) and the rounds' reference time."""
    return reference / statistics.mean(rounds)


class Sampled:
    """Time an interval of main-thread work, with host-speed samples
    taken inside it.

    A ``SIGALRM`` interval timer runs one calibration round every
    :data:`SAMPLE_PERIOD_S` at the next bytecode boundary of the main
    thread.  The rounds' time is taken out of the interval's ``wall``
    and their mean sets the scale to ``reference_s``.  This needs no
    hook into the program; system calls the timer interrupts are
    retried (PEP 475), and forked children do not inherit the timer.
    Use it only where the interval's work runs in this process: other
    processes contend for the CPU the rounds are timed on.

    A traced run turns ``enabled`` off, so no round lands inside a
    layer's span; the interval then has only its two outer rounds.
    """

    enabled = True

    def __enter__(self) -> "Sampled":
        self.rounds: List[float] = [calibrate()]
        self.paused = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        if self.enabled:
            signal.setitimer(
                signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S
            )
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.rounds.append(calibrate())
        self.paused += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self._t0 - self.paused
        signal.signal(signal.SIGALRM, self._previous)
        self.rounds.append(calibrate())

    @property
    def scale(self) -> float:
        return scale(self.rounds)

    @property
    def reference_s(self) -> float:
        return self.wall * self.scale

