"""Timed event queue for the discrete-event simulation.

The queue stores callbacks keyed by their virtual due time.  Ties are broken by
insertion order so the simulation stays deterministic regardless of Python's
heap internals.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional


@dataclass
class Event:
    """A scheduled callback.

    Attributes:
        due_ms: Virtual time at which the event fires.
        callback: Zero-argument callable executed when the event fires.
        name: Optional label used in debugging and metrics.
    """

    due_ms: float
    callback: Callable[[], Any]
    name: str = ""


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        #: (due time, insertion sequence, event): the sequence breaks ties
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, due_ms: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule ``callback`` to fire at virtual time ``due_ms``."""
        event = Event(due_ms=float(due_ms), callback=callback, name=name)
        heapq.heappush(self._heap, (event.due_ms, next(self._counter), event))
        return event

    def peek_due_ms(self) -> Optional[float]:
        """Return the due time of the earliest pending event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def pop_due(self, now_ms: float) -> Iterator[Event]:
        """Yield (and remove) every event due at or before ``now_ms``, in order."""
        heap = self._heap
        while heap and heap[0][0] <= now_ms + 1e-9:
            yield heapq.heappop(heap)[2]
