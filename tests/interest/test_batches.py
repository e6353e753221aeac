"""Delta batches apply exactly once through a lossy, duplicating wire."""

import pytest

from repro.interest import InterestMap
from repro.net import BatchStream, UpdateBatch
from repro.net.batch import FAR_TIER, NEAR_TIER
from repro.net.channel import SeenWindow


class BatchReceiver:
    """The client side of the wire: idempotent batch application for one player.

    ``accept`` returns True exactly once per sequence number: duplicated
    deliveries (a faulty wire, a retransmit) are rejected by the bounded
    seen-window, so a batch's entries are applied exactly once.
    """

    def __init__(self, player_id: int) -> None:
        self.player_id = player_id
        self._seen = SeenWindow()
        #: batches applied (first deliveries)
        self.accepted = 0
        #: duplicated deliveries rejected by the window
        self.duplicates_rejected = 0
        #: delta entries applied across all accepted batches
        self.entries_applied = 0

    def accept(self, batch: UpdateBatch) -> bool:
        if batch.player_id != self.player_id:
            raise ValueError(
                f"batch for player {batch.player_id} delivered to {self.player_id}"
            )
        if batch.sequence is None:
            raise ValueError("unstamped batch: route it through a BatchStream first")
        if not self._seen.add(batch.sequence):
            self.duplicates_rejected += 1
            return False
        self.accepted += 1
        self.entries_applied += batch.entries
        return True


def test_update_batch_validation():
    with pytest.raises(ValueError):
        UpdateBatch(player_id=1, tier="medium", entries=1, first_tick=0, flush_tick=0)
    with pytest.raises(ValueError):
        UpdateBatch(player_id=1, tier=NEAR_TIER, entries=-1, first_tick=0, flush_tick=0)
    with pytest.raises(ValueError):
        UpdateBatch(player_id=1, tier=FAR_TIER, entries=1, first_tick=5, flush_tick=3)
    UpdateBatch(player_id=1, tier=FAR_TIER, entries=3, first_tick=2, flush_tick=6)


def test_stream_stamps_per_player_monotonic_sequences():
    stream = BatchStream()
    template = UpdateBatch(player_id=1, tier=NEAR_TIER, entries=1, first_tick=0, flush_tick=0)
    other = UpdateBatch(player_id=2, tier=NEAR_TIER, entries=1, first_tick=0, flush_tick=0)
    assert [stream.stamp(template).sequence for _ in range(3)] == [1, 2, 3]
    assert stream.stamp(other).sequence == 1  # sequences are per recipient


def test_receiver_rejects_duplicates_and_misrouted_batches():
    stream = BatchStream()
    receiver = BatchReceiver(player_id=1)
    batch = stream.stamp(
        UpdateBatch(player_id=1, tier=NEAR_TIER, entries=4, first_tick=0, flush_tick=0)
    )
    assert receiver.accept(batch)
    assert not receiver.accept(batch)  # the retransmit is deduplicated
    assert (receiver.accepted, receiver.duplicates_rejected) == (1, 1)
    assert receiver.entries_applied == 4
    with pytest.raises(ValueError):
        receiver.accept(
            stream.stamp(
                UpdateBatch(player_id=2, tier=NEAR_TIER, entries=1, first_tick=0, flush_tick=0)
            )
        )
    with pytest.raises(ValueError):  # unstamped batches never reach a client
        receiver.accept(
            UpdateBatch(player_id=1, tier=NEAR_TIER, entries=1, first_tick=0, flush_tick=0)
        )


def test_flushes_through_a_duplicating_wire_apply_exactly_once(make_session):
    """End to end: InterestMap -> batch sink -> duplicating wire -> receiver."""
    interest = InterestMap(radius_chunks=2)
    session = make_session(1)
    interest.subscribe(session)
    receivers = {1: BatchReceiver(player_id=1)}
    wire: list[UpdateBatch] = []
    interest.batch_sink = wire.append
    for tick in range(6):
        interest.note_dirty((0, 0))
        interest.note_dirty((0, 0))
        interest.flush(tick_index=tick)
    assert len(wire) == 6
    # The wire duplicates every batch (a retransmitting network).
    for batch in list(wire):
        wire.append(batch)
    for batch in wire:
        receivers[batch.player_id].accept(batch)
    receiver = receivers[1]
    assert receiver.accepted == 6
    assert receiver.duplicates_rejected == 6
    # updates_sent counted each flush once, matching the accepted batches.
    assert session.updates == receiver.accepted
