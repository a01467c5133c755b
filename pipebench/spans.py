"""In-memory span tracing for the pipeline benchmark.

A :class:`Tracer` wraps class and module attributes of the learning
pipeline (each layer's public entry points) so every call records a span:
name, start, end, parent span and target id.  Spans stay in memory and are
written out once, at the end of the run.  Counters are recorded at the same
boundaries.

A re-entrant call (a wrapped function calling another wrapped function of
the same span name, e.g. Polca's batch entry point looping over its own
single-word entry point) folds into the span already open, so a layer's
time is never counted twice.

:func:`self_times` implements the arithmetic the per-layer report rests
on: a span's self time is its duration minus the time its direct children
cover.  The program is serial, so children never overlap and the self
times of a pass add up to the pass's wall clock.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

# One span: [name, start, end, parent index (-1 for a root), target id].
Span = list

NAME, START, END, PARENT, TARGET = range(5)


class Tracer:
    """Record spans and counters around wrapped calls."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.target: Optional[str] = None
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def open(self, name: str) -> Optional[Span]:
        """Open a span (``None`` when the innermost open span has this name)."""
        stack = self._stack
        spans = self.spans
        if stack and spans[stack[-1]][NAME] == name:
            return None
        record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.target]
        stack.append(len(spans))
        spans.append(record)
        record[START] = time.perf_counter()
        return record

    def close(self, record: Optional[Span]) -> None:
        if record is not None:
            record[END] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        record = self.open(name)
        try:
            yield
        finally:
            self.close(record)

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        self.counters[name] += amount

    def inside(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        spans = self.spans
        return any(spans[index][NAME] == name for index in self._stack)

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: object,
        attribute: str,
        name: Optional[str],
        counter: Optional[Callable[["Tracer", tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a wrapper recording span ``name``.

        ``counter(tracer, args, result)`` runs after each call and records
        the call's counts; with ``name=None`` the wrapper only counts.
        :meth:`uninstall` restores every original.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = tracer.open(name) if name is not None else None
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(record)
            if counter is not None:
                counter(tracer, args, result)
            return result

        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_generator(self, owner: object, attribute: str, name: str) -> None:
        """Wrap a generator function: one span per item it produces.

        The span covers only the work of producing each item, never the
        consumer's work between items, so it nests correctly under the
        consumer's span.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs) -> Iterator:
            items = original(*args, **kwargs)
            while True:
                record = tracer.open(name)
                try:
                    item = next(items, _EXHAUSTED)
                finally:
                    tracer.close(record)
                if item is _EXHAUSTED:
                    return
                yield item

        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (in reverse order)."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


_EXHAUSTED = object()


def attach(spans: List[Span], intervals: Sequence[Tuple[float, float]], name: str) -> None:
    """Append each time-ordered interval as a span named ``name`` under the
    innermost span that covers it.

    This records work that interrupted the traced program (a signal
    handler) without touching the tracer's stack while it runs.
    """
    stack: List[int] = []
    following = 0
    added: List[Span] = []
    for start, end in intervals:
        while following < len(spans) and spans[following][START] <= start:
            while stack and spans[stack[-1]][END] <= spans[following][START]:
                stack.pop()
            stack.append(following)
            following += 1
        while stack and spans[stack[-1]][END] <= start:
            stack.pop()
        parent = stack[-1] if stack else -1
        target = spans[parent][TARGET] if parent >= 0 else None
        added.append([name, start, end, parent, target])
    spans.extend(added)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Return each span's duration minus the durations of its direct children."""
    result = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            result[parent] -= span[END] - span[START]
    return result


def totals_by_name(
    spans: Sequence[Span], selfs: Sequence[float]
) -> Dict[str, Tuple[int, float, float]]:
    """Return ``{name: (spans, inclusive seconds, self seconds)}``."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span, own in zip(spans, selfs):
        entry = totals[span[NAME]]
        entry[0] += 1
        entry[1] += span[END] - span[START]
        entry[2] += own
    return {name: (int(n), inclusive, own) for name, (n, inclusive, own) in totals.items()}
