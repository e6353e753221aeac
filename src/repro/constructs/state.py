"""Construct state snapshots and hashing.

A construct's state is the mapping from cell positions to integer states.
:class:`ConstructState` is the public, position-keyed view of it — what
``SimulatedConstruct.snapshot()`` returns and what the equivalence suites and
run digests compare.  The speculative-offload path does not use it: requests
and replies carry bare value rows in sorted cell order
(:mod:`repro.constructs.loop_detection`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.world.coords import BlockPos


def state_hash(states: Mapping[BlockPos, int]) -> str:
    """A stable content hash of a construct state.

    The hash is independent of dict insertion order and stable across
    processes (unlike the built-in ``hash``), so a state hashed inside a
    (simulated) serverless function matches the server-side hash.
    """
    hasher = hashlib.sha256()
    for pos in sorted(states):
        hasher.update(f"{pos.x},{pos.y},{pos.z}={int(states[pos])};".encode("ascii"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class ConstructState:
    """An immutable snapshot of a construct's cell states at one step."""

    step: int
    states: Mapping[BlockPos, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", dict(self.states))

    def digest(self) -> str:
        return state_hash(self.states)

    def __iter__(self) -> Iterator[BlockPos]:
        return iter(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConstructState):
            return NotImplemented
        return self.step == other.step and dict(self.states) == dict(other.states)
