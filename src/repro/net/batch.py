"""Server-to-client update batches (the interest-managed broadcast wire).

With area-of-interest broadcast enabled, a session no longer receives one
full state update per tick; it receives *delta batches* — the dirty entries
of the chunks it subscribes to, coalesced per consistency tier ("near"
flushes every tick, "far" flushes when a dyconit budget would be violated).

Like client messages (:mod:`repro.net.channel`), batches carry a per-player
monotonic ``sequence`` number so delivery can be made idempotent: a client
tolerates a lossy or duplicating wire by deduplicating against a bounded
:class:`~repro.net.channel.SeenWindow` of recently seen sequence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: consistency tiers a batch can belong to
NEAR_TIER = "near"
FAR_TIER = "far"


@dataclass(frozen=True)
class UpdateBatch:
    """One delta-compressed state update sent to one subscriber."""

    #: recipient player id
    player_id: int
    #: consistency tier ("near" or "far")
    tier: str
    #: delta entries coalesced into this batch
    entries: int
    #: tick at which the batch's oldest entry was produced
    first_tick: int
    #: tick at which the batch was flushed; ``flush_tick - first_tick`` is
    #: the staleness the subscriber observed (0 for near batches)
    flush_tick: int
    #: per-player wire sequence number, stamped by the batch stream; dedupe
    #: key for idempotent application on a lossy wire
    sequence: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tier not in (NEAR_TIER, FAR_TIER):
            raise ValueError(f"unknown batch tier {self.tier!r}")
        if self.entries < 0:
            raise ValueError("entries must be non-negative")
        if self.flush_tick < self.first_tick:
            raise ValueError("flush_tick must not precede first_tick")


class BatchStream:
    """Stamps outbound batches with per-recipient monotonic sequence numbers."""

    def __init__(self) -> None:
        self._sequences: dict[int, int] = {}

    def stamp(self, batch: UpdateBatch) -> UpdateBatch:
        """Assign the next sequence number for the batch's recipient."""
        sequence = self._sequences.get(batch.player_id, 0) + 1
        self._sequences[batch.player_id] = sequence
        return replace(batch, sequence=sequence)
