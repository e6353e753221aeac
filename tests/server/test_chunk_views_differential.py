"""Generated differential: views that move by ring deltas against the cached chunk sets they replaced.

Each case is a list of ticks.  Before a tick, a generated handful of events
lands on two chunk managers fed the same inputs: a join, a leave, a one-chunk
step in any of the 8 directions, a jump of several chunks, a teleport (far,
negative and across the origin), a crossing and a return within one tick, a
listing as moved of an avatar that stayed in its chunk, a pin on a loaded
chunk, the release of a pin, an edit that dirties a loaded chunk, and an
eviction pass (``_evict``, as the periodic one runs it).  One manager is production's; the other is
:class:`reference_chunk_views.ReferenceChunkManager`, whose views and
eviction are the code they replaced.  They run with no region and with an
``OwnershipRegion`` strip a few chunks wide.

After every tick the two agree exactly: the reference counts, the
unavailable set, every player's send queue and sent set, the loaded chunks,
the pending requests, the chunks evicted and the storage writes (in order),
the crossings reported to the centre listeners, and the tick report.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.server.chunkmanager import ChunkManager, LocalTerrainProvider, OwnershipRegion
from repro.server.entities import Avatar, AvatarTable
from repro.sim import SimulationEngine
from repro.storage.local import LocalDiskStorage
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos
from repro.world.terrain import FlatTerrainGenerator
from repro.world.world import VoxelWorld

from hypothesis_profiles import examples
from reference_chunk_views import ReferenceChunkManager

SLOTS = 4
Y = 65
#: the 8 one-chunk steps
DIRECTIONS = [(dx, dz) for dx in (-1, 0, 1) for dz in (-1, 0, 1) if (dx, dz) != (0, 0)]
REGIONS = {"none": None, "zone": OwnershipRegion(min_cx=-2, max_cx=4)}

slots = st.integers(min_value=0, max_value=SLOTS - 1)
chunks = st.integers(min_value=-12, max_value=12)
far = st.one_of(
    st.integers(min_value=-60 * CHUNK_SIZE, max_value=60 * CHUNK_SIZE),
    st.sampled_from([2**40 + 5, -(2**40) - 7, 2**58, -(2**58)]),
)
events = st.one_of(
    st.tuples(st.just("join"), slots),
    st.tuples(st.just("leave"), slots),
    st.tuples(st.just("step"), slots, st.sampled_from(DIRECTIONS)),
    st.tuples(st.just("jump"), slots, chunks, chunks),
    st.tuples(st.just("teleport"), slots, far, far),
    st.tuples(st.just("there_and_back"), slots, chunks, chunks),
    st.tuples(st.just("inside"), slots),
    st.tuples(st.just("protect"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("unprotect"), st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("dirty"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(st.just("evict")),
)
cases = st.lists(st.lists(events, max_size=6), min_size=2, max_size=14)


class Side:
    """One chunk manager, its avatars by slot and a log of what it did."""

    def __init__(self, manager_class: type, region) -> None:
        self.engine = SimulationEngine(seed=11)
        generator = FlatTerrainGenerator(seed=1)
        self.world = VoxelWorld()
        self.storage = LocalDiskStorage(rng=self.engine.rng("disk"))
        self.manager = manager_class(
            engine=self.engine,
            world=self.world,
            generator=generator,
            provider=LocalTerrainProvider(self.engine, generator),
            storage=self.storage,
            # A view ring of 4 chunks and a keep ring of 8, on whose edge
            # chunks lie (6² + 6² = 8² + 8), so a keep test off by one shows.
            view_distance_blocks=64.0,
            region=region,
        )
        self.manager.preload_area(BlockPos(8, Y, 8), 40.0)
        self.table = AvatarTable()
        self.avatars: dict[int, Avatar] = {}
        self.moved: list[Avatar] = []
        self.pins: list[list[ChunkPos]] = []
        self.log: list = []
        remove_chunk, write = self.world.remove_chunk, self.storage.write

        def logged_remove(position):
            self.log.append(("evict", position))
            return remove_chunk(position)

        def logged_write(key, data):
            self.log.append(("write", key, data))
            return write(key, data)

        self.world.remove_chunk = logged_remove
        self.storage.write = logged_write
        self.manager.center_listeners.append(
            lambda player_id, centre: self.log.append(("centre", player_id, centre))
        )

    def move(self, slot: int, x: int, z: int) -> None:
        avatar = self.avatars[slot]
        before = self.table.chunk_of(avatar)
        avatar.position = BlockPos(x, Y, z)
        if self.table.chunk_of(avatar) != before:
            self.moved.append(avatar)

    def apply(self, event: tuple) -> None:
        kind, *args = event
        if kind == "protect":  # a loaded chunk and its neighbour
            loaded = self.world.loaded_chunk_positions
            if loaded:
                cx, cz = loaded[args[0] % len(loaded)]
                pin = [ChunkPos(cx, cz), ChunkPos(cx + 1, cz)]
                self.pins.append(pin)
                self.manager.protect(pin)
            return
        if kind == "unprotect":
            if self.pins:
                self.manager.unprotect(self.pins.pop(args[0] % len(self.pins)))
            return
        if kind == "dirty":
            loaded = self.world.loaded_chunk_positions
            if loaded:
                self.world._chunks[loaded[args[0] % len(loaded)]].dirty = True
            return
        if kind == "evict":
            if self.table.avatars:
                self.log.append(("evicted", self.manager._evict(self.table)))
            return
        slot = args[0]
        avatar = self.avatars.get(slot)
        if kind == "join":
            if avatar is None:
                avatar = Avatar(slot, f"p{slot}", BlockPos(8 + 5 * slot, Y, 8 - 3 * slot))
                self.table.bind(avatar)
                self.avatars[slot] = avatar
                self.moved.append(avatar)
            return
        if avatar is None:
            return
        here = avatar.position
        if kind == "leave":
            del self.avatars[slot]
            self.table.unbind(avatar)
            self.moved = [other for other in self.moved if other is not avatar]
            self.manager.forget_player(slot)
        elif kind == "step":
            dx, dz = args[1]
            self.move(slot, here.x + dx * CHUNK_SIZE, here.z + dz * CHUNK_SIZE)
        elif kind == "jump":
            self.move(slot, here.x + args[1] * CHUNK_SIZE, here.z + args[2] * CHUNK_SIZE)
        elif kind == "teleport":
            self.move(slot, args[1], args[2])
        elif kind == "there_and_back":
            self.move(slot, here.x + args[1] * CHUNK_SIZE, here.z + args[2] * CHUNK_SIZE)
            self.move(slot, here.x, here.z)
        elif kind == "inside":
            self.moved.append(avatar)

    def tick(self) -> None:
        moved, self.moved = self.moved, []
        report = self.manager.update(self.table, moved)
        self.log.append(("report", dataclasses.astuple(report)))
        self.engine.advance_by(60.0)

    def sent(self) -> dict[int, set[ChunkPos]]:
        """The chunks each player's client holds: its first view and what was streamed since."""
        manager = self.manager
        if isinstance(manager, ReferenceChunkManager):
            return manager._player_sent
        return {
            player_id: streamed | set(manager._owned_ring(manager._player_first_centre[player_id]))
            for player_id, streamed in manager._player_sent.items()
        }

    def state(self) -> tuple:
        manager = self.manager
        return (
            manager._chunk_refcounts,
            manager._unavailable,
            manager._player_send_queue,
            self.sent(),
            manager._pending,
            self.world.loaded_chunk_positions,
            self.log,
        )


#: a chunk dirtied 2**40 blocks out (chunk 2**36) is written back when its player
#: jumps away: its coordinates do not fit the 32-bit storage header
FAR_DIRTY_WRITE = (
    [[("join", 0)], [("teleport", 0, 8, 2**40 + 5)]] + [[]] * 9
    + [[("evict",), ("dirty", 0)], [("jump", 0, 12, 12)], [("evict",)], []]
)


@pytest.mark.parametrize("region", REGIONS)
@settings(max_examples=examples(40))
@given(case=cases)
@example(case=FAR_DIRTY_WRITE)
def test_views_and_eviction_match_the_reference(region, case):
    production = Side(ChunkManager, REGIONS[region])
    reference = Side(ReferenceChunkManager, REGIONS[region])
    for tick_events in case:
        for event in tick_events:
            production.apply(event)
            reference.apply(event)
        production.tick()
        reference.tick()
        assert production.state() == reference.state()
