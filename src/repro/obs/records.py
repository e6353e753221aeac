"""Bounded record storage for long runs.

``GameServer.tick_records`` and ``ClusterCoordinator``'s record lists grow one
Python object per tick/migration; a million-tick soak run accumulates
gigabytes of them even though every summary the experiments print is an
aggregate.  :class:`RecordRing` keeps those attributes list-compatible while
adding an optional retention cap: uncapped (the default) it behaves exactly
like the list it replaces, capped it retains only the newest ``cap`` records
in a ``deque`` and keeps the run-wide summaries (count, over-budget
fraction) correct incrementally.

Indexing is **virtual**: ``ring[i]`` and ``ring[a:b]`` address records by
their append index over the whole run, exactly as the list did, so callers
like ``Scenario.run`` (``tick_records[measured_from:]``) keep working —
touching an index whose record was evicted raises :class:`EvictedRecordError`
rather than silently returning the wrong record.  ``len(ring)`` is the total
number of records ever appended (tick indices and "how many ticks ran"
arithmetic depend on it), not the retained count.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Optional


class EvictedRecordError(IndexError):
    """A virtual index addressed a record the retention cap already evicted."""


class RecordRing:
    """A list-compatible, optionally capped append-only record store."""

    def __init__(
        self,
        cap: Optional[int] = None,
        duration_of: Optional[str] = None,
        budget_ms: Optional[float] = None,
    ) -> None:
        if cap is not None and cap < 1:
            raise ValueError(f"record cap must be at least 1, got {cap}")
        self.cap = cap
        #: attribute name holding each record's duration, for the over-budget
        #: fraction (e.g. "duration_ms" for ticks, "latency_ms" for migrations)
        self.duration_of = duration_of
        #: budget the incremental over-budget counter compares against; only
        #: this budget stays answerable after evictions
        self.budget_ms = budget_ms
        self._items: Any = [] if cap is None else deque(maxlen=cap)
        self._appended = 0
        self._over_budget = 0
        # The incremental counter exists to stay exact after eviction; an
        # uncapped ring never evicts and can always answer by scanning, so
        # the hot append path only pays for it when a cap is set.
        self._count_over_budget = (
            cap is not None and duration_of is not None and budget_ms is not None
        )

    # -- list protocol (virtual indices) -------------------------------------------

    def append(self, record: Any) -> None:
        self._items.append(record)
        self._appended += 1
        if self._count_over_budget and getattr(record, self.duration_of) > self.budget_ms:
            self._over_budget += 1

    def __len__(self) -> int:
        """Total records ever appended (NOT the retained count)."""
        return self._appended

    @property
    def dropped(self) -> int:
        """Records evicted by the cap (0 when uncapped)."""
        return self._appended - len(self._items)

    def retained(self) -> list[Any]:
        """The records still held, oldest first."""
        return list(self._items)

    def _resolve(self, index: int) -> Any:
        if index < 0:
            index += self._appended
        if not 0 <= index < self._appended:
            raise IndexError(
                f"record index {index} out of range (appended {self._appended})"
            )
        physical = index - self.dropped
        if physical < 0:
            raise EvictedRecordError(
                f"record {index} was evicted by the retention cap "
                f"(cap={self.cap}, oldest retained index is {self.dropped})"
            )
        return self._items[physical]

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._appended)
            return [self._resolve(i) for i in range(start, stop, step)]
        return self._resolve(int(index))

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return self._appended > 0

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RecordRing):
            return (
                self._appended == other._appended
                and self.dropped == other.dropped
                and list(self._items) == list(other._items)
            )
        if isinstance(other, (list, tuple)):
            # Fully comparable to a plain list only when nothing was evicted.
            return self.dropped == 0 and list(self._items) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return (
            f"RecordRing(cap={self.cap}, appended={self._appended}, "
            f"retained={len(self._items)})"
        )

    # -- incremental summaries ------------------------------------------------------

    def over_budget_fraction(self, budget_ms: float) -> float:
        """Fraction of ALL appended records whose duration exceeded the budget.

        Answered by an exact scan while nothing has been evicted (any budget),
        and by the incremental counter afterwards (only the construction-time
        ``budget_ms`` — anything else would need the evicted records back).
        """
        if self.duration_of is None:
            raise ValueError("this ring does not track durations")
        if self._appended == 0:
            raise ValueError("no records have been appended yet")
        if self.dropped == 0:
            attr = self.duration_of
            over = sum(
                1 for record in self._items if getattr(record, attr) > budget_ms
            )
            return over / self._appended
        if self.budget_ms is not None and budget_ms == self.budget_ms:
            return self._over_budget / self._appended
        raise ValueError(
            f"cannot answer over-budget fraction for budget {budget_ms!r} ms: "
            f"{self.dropped} records were evicted and the ring tracks "
            f"budget {self.budget_ms!r} ms incrementally"
        )
