"""Loop detection: a construct whose state repeats replays its loop forever.

Many player-built constructs loop through a fixed list of states indefinitely
(clocks, lamps on timers, some farms).  A step is a pure function of the state
vector, so once a state repeats the loop is known and need not be simulated
again.  Servo's offload function truncates its result to one period of the
loop plus an index (Section III-C1, :func:`compress_trace`).  Both construct
backends hand a construct whose future is a known loop to one
:class:`LoopReplay`: the local backend (:mod:`repro.server.sc_engine`) when a
group's row repeats, the speculative backend (:mod:`repro.core.speculative`)
when it merges a row inside a reply's loop.  A fixed point is the loop of
period 1.

A state here is a *row*: the construct's cell values in sorted cell order
(``SimulatedConstruct.states``), an ``int64`` array.  Positions are not part
of it, so a sequence computed for one construct serves every structurally
identical construct wherever it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.constructs.circuit import SimulatedConstruct


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


class _Replay:
    """A construct replaying its own copy of a loop; ``phase`` is the row it holds."""

    __slots__ = ("construct", "rows", "period", "phase")

    def __init__(
        self, construct: SimulatedConstruct, loop: Sequence[np.ndarray], phase: int
    ) -> None:
        # A private table: its rows become the construct's writable vector in turn.
        self.construct, self.rows = construct, list(np.array(loop))
        self.period, self.phase = len(self.rows), phase


class LoopReplay:
    """The constructs whose future is a known loop, advanced without simulation.

    Each replaying construct holds a private copy of its loop and takes the
    next row every step; a parked one sits at a fixed point (the loop of
    period 1), where only its step counter moves.  A backend must
    :meth:`clear` the replay whenever a construct it holds may leave its loop:
    a player edit, or a registration or removal that regroups constructs.
    """

    def __init__(self) -> None:
        self.replaying: list[_Replay] = []
        self.parked: list[SimulatedConstruct] = []
        #: the advances replay and parking satisfied
        self.replayed_steps = self.parked_steps = 0

    def enter(
        self, construct: SimulatedConstruct, loop: Sequence[np.ndarray], phase: int = 0
    ) -> None:
        """Replay ``loop`` (rows in step order) for ``construct``, which holds ``loop[phase]``."""
        if len(loop) == 1:
            self.parked.append(construct)
        else:
            self.replaying.append(_Replay(construct, loop, phase))

    def enter_sequence(
        self, construct: SimulatedConstruct, sequence: CompressedStateSequence, step: int
    ) -> bool:
        """Replay ``sequence``'s loop if ``construct``'s row after ``step`` is in it; True if so."""
        loop_start = sequence.loop_start
        offset = step - sequence.start_step - 1
        if loop_start is None or offset < loop_start:
            return False
        loop = sequence.states[loop_start:]
        self.enter(construct, loop, (offset - loop_start) % len(loop))
        return True

    def advance(self) -> int:
        """Advance every construct held one step (rows are views: no copy); returns the count."""
        for replay in self.replaying:
            replay.phase = phase = (replay.phase + 1) % replay.period
            construct = replay.construct
            construct.states = replay.rows[phase]
            construct.step += 1
        for construct in self.parked:
            construct.step += 1
        replayed, parked = len(self.replaying), len(self.parked)
        self.replayed_steps += replayed
        self.parked_steps += parked
        return replayed + parked

    def skipped_rows(self) -> list[tuple[SimulatedConstruct, np.ndarray]]:
        """Each construct held, with the row its next advance gives it."""
        replayed = [(r.construct, r.rows[(r.phase + 1) % r.period]) for r in self.replaying]
        return replayed + [(construct, construct.states) for construct in self.parked]

    def clear(self) -> None:
        """Drop every loop: the constructs go back to their backend's simulation."""
        self.replaying, self.parked = [], []
