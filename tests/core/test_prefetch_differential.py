"""The packed prefetch planner against the ``ChunkPos``-set executable spec.

Two identical worlds (same seed, so the blob's latency streams match draw for
draw) receive the same generated history of avatar moves, cache writes,
flushes, direct persists, reads and prefetch evaluations.  One evaluates with
``ServoStorageService.prefetch_for_avatars``, the other with the old
implementation in ``reference_prefetch``.  Every evaluation must issue the
same ``cache.prefetch`` keys in the same order and return the same count, and
the worlds must end in the same state.  A cost test then pins what the memo is
for: an evaluation whose candidates did not change builds no ``ChunkPos`` and
formats no key.
"""

import reference_prefetch
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage_service import ServoStorageService
from repro.server.entities import Avatar
from repro.sim import SimulationEngine
from repro.storage import prefetch as prefetch_module
from repro.storage.blob import BlobStorage
from repro.world.coords import BlockPos, ChunkPos

from hypothesis_profiles import examples


class World:
    """One storage service with its blob, its avatars and a log of prefetched keys."""

    def __init__(self, seed, radii, capacity, starts, persisted):
        engine = SimulationEngine(seed=seed)
        self.blob = BlobStorage(rng=engine.rng("blob"))
        self.service = ServoStorageService(
            engine=engine,
            remote=self.blob,
            view_distance_blocks=radii[0],
            prefetch_margin_blocks=radii[1],
            cache_capacity_objects=capacity,
        )
        self.metrics = engine.metrics
        self.avatars = [
            Avatar(player_id=index, name=f"p{index}", position=BlockPos(x, 65, z))
            for index, (x, z) in enumerate(starts)
        ]
        for cx, cz in sorted(persisted):
            self.blob.write(ChunkPos(cx, cz).key(), b"chunk")
        self.prefetched = []
        fetch = self.service.cache.prefetch

        def logged(key):
            self.prefetched.append(key)
            return fetch(key)

        self.service.cache.prefetch = logged

    def apply(self, step):
        kind, *args = step
        if kind == "move":
            avatar = self.avatars[args[0] % len(self.avatars)]
            here = avatar.position
            avatar.position = BlockPos(here.x + args[1], here.y, here.z + args[2])
        elif kind == "write":  # dirty in the cache; persisted by a flush or an eviction
            self.service.write(ChunkPos(*args).key(), b"edited")
        elif kind == "persist":
            self.blob.write(ChunkPos(*args).key(), b"chunk")
        elif kind == "flush":
            self.service.flush()
        elif kind == "read":  # reorders the LRU; a miss inserts and may evict
            key = ChunkPos(*args).key()
            if self.service.exists(key):
                self.service.read(key)

    def state(self):
        return (
            list(self.service.cache._entries),
            sorted(self.service.cache._dirty),
            self.blob.list_keys(),
            self.blob.read_count,
            self.blob.write_count,
            self.service.cache.stats,
            self.metrics.counter("prefetched_objects"),
        )


# Blocks either side of the origin, so floor division and ``%`` see negatives.
blocks = st.integers(-250, 250)
chunks = st.tuples(st.integers(-20, 20), st.integers(-20, 20))
# A solid patch of persisted terrain (so evaluations have plenty to fetch and a
# small cache has plenty to evict) plus scattered singles.
patches = st.builds(
    lambda cx, cz, width, depth: {
        (cx + dx, cz + dz) for dx in range(width) for dz in range(depth)
    },
    st.integers(-14, 6), st.integers(-14, 6), st.integers(1, 12), st.integers(1, 12),
)
evaluate = st.just(("evaluate",))
steps = st.one_of(
    evaluate,
    evaluate,  # twice: about one step in four is an evaluation
    st.tuples(st.just("move"), st.integers(0, 3), st.integers(-80, 80), st.integers(-80, 80)),
    st.builds(lambda c: ("write", *c), chunks),
    st.builds(lambda c: ("persist", *c), chunks),
    st.just(("flush",)),
    st.builds(lambda c: ("read", *c), chunks),
)


@settings(max_examples=examples(200))
@given(
    seed=st.integers(0, 2 ** 16),
    radii=st.sampled_from([(32.0, 16.0), (48.0, 0.0), (15.9, 17.6), (128.0, 48.0)]),
    capacity=st.integers(1, 60),
    starts=st.lists(st.tuples(blocks, blocks), min_size=1, max_size=4),
    persisted=st.builds(set.union, patches, st.sets(chunks, max_size=30)),
    history=st.lists(steps, min_size=4, max_size=30),
)
def test_evaluations_prefetch_the_same_keys_in_the_same_order(
    seed, radii, capacity, starts, persisted, history
):
    new = World(seed, radii, capacity, starts, persisted)
    old = World(seed, radii, capacity, starts, persisted)
    for step in [*history, ("evaluate",)]:
        if step == ("evaluate",):
            returned = new.service.prefetch_for_avatars(new.avatars)
            expected = reference_prefetch.prefetch_for_avatars(old.service, old.avatars)
            assert new.prefetched == old.prefetched
            assert returned == expected
        else:
            new.apply(step)
            old.apply(step)
    assert new.state() == old.state()


def _count_calls(monkeypatch):
    """Count ``ChunkPos`` constructions and key-list builds from here on."""
    counts = {"ChunkPos": 0, "keys": 0}
    init, build_keys = ChunkPos.__init__, prefetch_module.packed_chunk_keys

    def counting_init(self, cx, cz):
        counts["ChunkPos"] += 1
        init(self, cx, cz)

    def counting_keys(packed):
        counts["keys"] += 1
        return build_keys(packed)

    monkeypatch.setattr(ChunkPos, "__init__", counting_init)
    monkeypatch.setattr(prefetch_module, "packed_chunk_keys", counting_keys)
    return counts


def test_an_unchanged_candidate_set_costs_no_chunkpos_and_no_key_strings(monkeypatch):
    world = World(seed=5, radii=(128.0, 48.0), capacity=4096,
                  starts=[(8, 8), (-200, 40)], persisted={(0, 0), (3, -2)})
    counts = _count_calls(monkeypatch)
    assert world.service.prefetch_for_avatars(world.avatars) == 2
    assert counts == {"ChunkPos": 0, "keys": 1}

    # Nobody moved: same candidates, nothing rebuilt, the filter still runs ...
    assert world.service.prefetch_for_avatars(world.avatars) == 0
    assert counts == {"ChunkPos": 0, "keys": 1}
    # ... so a chunk persisted since the last evaluation is found,
    world.blob.write("chunk_-1_1", b"chunk")
    assert world.service.prefetch_for_avatars(world.avatars) == 1
    # and so is one that was cached then and has been dropped since.
    world.service.cache.delete("chunk_0_0")
    world.blob.write("chunk_0_0", b"chunk")
    assert world.service.prefetch_for_avatars(world.avatars) == 1
    assert world.prefetched == ["chunk_0_0", "chunk_3_-2", "chunk_-1_1", "chunk_0_0"]
    assert counts == {"ChunkPos": 0, "keys": 1}


def test_a_moved_avatar_rebuilds_the_keys_and_finds_a_newly_persisted_chunk(monkeypatch):
    world = World(seed=5, radii=(128.0, 48.0), capacity=4096,
                  starts=[(8, 8)], persisted={(0, 0)})
    assert world.service.prefetch_for_avatars(world.avatars) == 1
    world.blob.write("chunk_40_0", b"chunk")  # 640 blocks east: out of reach for now
    assert world.service.prefetch_for_avatars(world.avatars) == 0

    counts = _count_calls(monkeypatch)
    world.avatars[0].position = BlockPos(600, 65, 8)
    assert world.service.prefetch_for_avatars(world.avatars) == 1
    assert world.prefetched == ["chunk_0_0", "chunk_40_0"]
    assert counts == {"ChunkPos": 0, "keys": 1}
