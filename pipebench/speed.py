"""Machine-speed reference for the end-to-end pass time.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, because of other tenants.  Wall clock alone then
cannot resolve a 25% regression.  :class:`SpeedReference` times a fixed
pure-Python routine (small-tuple dict inserts and a dict-of-dict trie walk,
the pipeline's own kind of work) every :data:`INTERVAL` seconds *during*
a pass, from a ``SIGALRM`` handler.  :meth:`SpeedReference.normalise`
removes the samples' own time from the pass and rescales the rest to the
speed at which the routine takes :data:`REFERENCE_SECONDS`, so a slow
phase of the host inflates the routine and the pass alike and cancels.

The routine is part of the benchmark, not of the library, so a change to
the library never changes the yardstick.
"""

from __future__ import annotations

import math
import random
import signal
import time
from statistics import median
from typing import List, Tuple

#: Seconds between two samples of the reference routine.
INTERVAL = 0.02

#: Geometric mean of the two routines' median durations on the reference
#: speed (a quiet 2.1 GHz Xeon vCPU, Python 3.11).  Normalised pass times
#: are seconds at this speed.
REFERENCE_SECONDS = 3.2e-4

_RANDOM = random.Random(20201)
_WORDS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(_RANDOM.randrange(9) for _ in range(_RANDOM.randrange(3, 12)))
    for _ in range(150)
)


def _dict_routine() -> int:
    table = {}
    for i in range(1000):
        table[(i, i & 7)] = i
    return len(table)


def _trie_routine() -> int:
    root: dict = {}
    for word in _WORDS:
        node = root
        for symbol in word:
            child = node.get(symbol)
            if child is None:
                child = node[symbol] = {}
            node = child
    return len(root)


class SpeedReference:
    """Sample the reference routines while a block runs (not re-entrant)."""

    def __init__(self) -> None:
        self.samples: Tuple[List[float], List[float]] = ([], [])
        #: ``(start, end)`` of every sample, in time order.
        self.intervals: List[Tuple[float, float]] = []
        self._next = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        which = self._next
        self._next ^= 1
        routine = _dict_routine if which == 0 else _trie_routine
        start = time.perf_counter()
        routine()
        end = time.perf_counter()
        self.samples[which].append(end - start)
        self.intervals.append((start, end))

    def __enter__(self) -> "SpeedReference":
        for samples in self.samples:
            samples.clear()
        self.intervals.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def sampled_seconds(self) -> float:
        """Time the samples themselves took."""
        return sum(map(sum, self.samples))

    @property
    def routine_seconds(self) -> float:
        """Geometric mean of the two routines' median durations."""
        if not all(self.samples):
            raise RuntimeError("the pass ended before both reference routines ran")
        return math.sqrt(median(self.samples[0]) * median(self.samples[1]))

    def normalise(self, seconds: float) -> float:
        """``seconds`` of a pass measured inside this block, minus the
        samples' own time, at the reference speed."""
        return (seconds - self.sampled_seconds) * REFERENCE_SECONDS / self.routine_seconds
