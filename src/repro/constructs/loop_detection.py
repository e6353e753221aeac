"""Loop detection: a construct whose state repeats replays its loop forever.

Many player-built constructs loop through a fixed list of states indefinitely
(clocks, lamps on timers, some farms).  A step is a pure function of the state
vector, so once a state repeats the loop is known, and two consumers replay it
instead of simulating it again.  Servo's offload function truncates its result
to one period of the loop plus an index (Section III-C1,
:func:`compress_trace`); the local backend (:mod:`repro.server.sc_engine`)
takes its constructs out of the kernel batch, a fixed point being the loop of
period 1.

A state here is a *row*: the construct's cell values in sorted cell order
(``SimulatedConstruct.states``), an ``int64`` array.  Positions are not part
of it, so a sequence computed for one construct serves every structurally
identical construct wherever it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(frozen=True, eq=False)
class CompressedStateSequence:
    """A state sequence, possibly truncated to a prefix plus a repeating loop.

    ``start_step`` is the construct step *before* the first row of ``states``
    (i.e. ``states[0]`` is the state after step ``start_step + 1``).  If
    ``loop_start`` is set, the sequence continues forever by repeating
    ``states[loop_start:]`` after the last stored row.
    """

    start_step: int
    #: read-only ``(stored states, cells)`` ``int64`` matrix
    states: np.ndarray
    loop_start: Optional[int] = None

    def __post_init__(self) -> None:
        if self.states.ndim != 2:
            raise ValueError("states must be a (steps, cells) matrix")
        self.states.flags.writeable = False

    @classmethod
    def from_rows(
        cls, start_step: int, rows: list[np.ndarray], loop_start: Optional[int] = None
    ) -> "CompressedStateSequence":
        """Stack equally long rows (one per step) into a sequence."""
        matrix = np.array(rows, dtype=np.int64) if rows else np.empty((0, 0), np.int64)
        return cls(start_step, matrix, loop_start)

    @property
    def is_looping(self) -> bool:
        return self.loop_start is not None

    @property
    def explicit_length(self) -> int:
        """Number of explicitly stored states."""
        return len(self.states)

    @property
    def cell_count(self) -> int:
        return self.states.shape[1]

    @property
    def last_step(self) -> int:
        """The step of the last stored row (a looping sequence continues past it)."""
        return self.start_step + len(self.states)

    def covers(self, step: int) -> bool:
        """True if the sequence can produce the state after ``step`` steps."""
        if step <= self.start_step:
            return False
        return self.is_looping or step <= self.last_step

    def settled_by(self, step: int) -> bool:
        """True if ``step`` and every later step hold one and the same state."""
        return (
            self.loop_start is not None
            and self.loop_start == len(self.states) - 1
            and step > self.start_step + self.loop_start
        )

    def row_at(self, step: int) -> np.ndarray:
        """The (read-only) matrix row after ``step`` total steps, in sorted cell order."""
        if not self.covers(step):
            raise KeyError(
                f"sequence starting at {self.start_step} does not cover step {step}"
            )
        offset = step - self.start_step - 1
        if offset >= len(self.states):
            loop_length = len(self.states) - self.loop_start
            offset = self.loop_start + (offset - self.loop_start) % loop_length
        return self.states[offset]


class LoopDetector:
    """Records state rows; the first row equal to an earlier one closes the loop there."""

    def __init__(self) -> None:
        self._seen: dict[bytes, int] = {}
        #: every distinct row observed, in order (a repeat is not recorded)
        self.rows: list[np.ndarray] = []

    def observe(self, row: np.ndarray) -> Optional[int]:
        """Record an ``int64`` row; returns the index of the earlier equal row if this one repeats."""
        key = row.tobytes()
        repeat_of = self._seen.get(key)
        if repeat_of is None:
            self._seen[key] = len(self.rows)
            self.rows.append(row)
        return repeat_of


def compress_trace(start_step: int, rows: Iterable[np.ndarray]) -> CompressedStateSequence:
    """Compress a simulated state sequence by detecting a repeated state.

    If row ``i`` reappears at position ``j`` (``j > i``), everything from
    ``i`` onwards forms the repeating loop: rows ``0..j-1`` are kept and
    ``loop_start`` is ``i``.  ``rows`` is consumed lazily and not read past
    the first repeat, so a caller that simulates on demand stops there.
    """
    detector = LoopDetector()
    loop_start = None
    for row in rows:
        loop_start = detector.observe(row)
        if loop_start is not None:
            break
    return CompressedStateSequence.from_rows(start_step, detector.rows, loop_start)
