"""Tests for chunk management: loading, generation, streaming, eviction."""

from collections import Counter

import pytest

from repro.server.chunkmanager import (
    ChunkManager,
    GenerationResult,
    LocalTerrainProvider,
    TerrainProvider,
)
from repro.server.entities import Avatar
from repro.storage.local import LocalDiskStorage
from repro.world.block import BlockType
from repro.world.coords import BlockPos, ChunkPos
from repro.world.serialization import chunk_to_bytes
from repro.world.terrain import FlatTerrainGenerator
from repro.world.world import VoxelWorld


def make_manager(engine, storage=None, view_distance=48.0, workers=2):
    storage = storage or LocalDiskStorage(rng=engine.rng("disk"))
    generator = FlatTerrainGenerator(seed=1)
    world = VoxelWorld()
    provider = LocalTerrainProvider(engine, generator, workers=workers, work_ms=100.0)
    manager = ChunkManager(
        engine=engine,
        world=world,
        generator=generator,
        provider=provider,
        storage=storage,
        view_distance_blocks=view_distance,
        max_integrations_per_tick=4,
        eviction_interval_ticks=5,
    )
    return manager, world, provider


def avatar_at(x, z, player_id=1):
    return Avatar(player_id=player_id, name=f"p{player_id}", position=BlockPos(x, 65, z))


def test_preload_area_loads_chunks_synchronously(engine):
    manager, world, _ = make_manager(engine)
    loaded = manager.preload_area(BlockPos(0, 65, 0), 32.0)
    assert loaded > 0
    assert world.loaded_chunk_count == loaded
    # preloading again does nothing
    assert manager.preload_area(BlockPos(0, 65, 0), 32.0) == 0


def test_missing_chunks_are_requested_and_eventually_integrated(engine):
    manager, world, provider = make_manager(engine)
    avatar = avatar_at(0, 0)
    report = manager.update([avatar], [avatar])
    assert report.chunks_requested > 0
    assert manager.pending_chunks > 0
    assert world.loaded_chunk_count == 0
    # Let the provider finish and integrate over a few ticks.
    total_integrated = 0
    for _ in range(40):
        engine.advance_by(100.0)
        total_integrated += manager.update([avatar], []).chunks_integrated
    assert total_integrated > 0
    assert world.loaded_chunk_count > 0
    assert manager.pending_chunks == 0


def test_integrations_are_bounded_per_tick(engine):
    manager, world, _ = make_manager(engine)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    engine.advance_by(60_000.0)  # let every generation finish
    report = manager.update([avatar], [])
    assert report.chunks_integrated <= manager.max_integrations_per_tick


class BurstProvider(TerrainProvider):
    """Counts requests per position and holds every reply until :meth:`deliver`."""

    def __init__(self, generator):
        self.generator = generator
        self.requests = Counter()
        self._held = []

    def request(self, position, callback):
        self.requests[position] += 1
        self._held.append((position, callback))

    def deliver(self):
        held, self._held = self._held, []
        for position, callback in held:
            result = GenerationResult(position, 1.0, "local-generation", True)
            callback(self.generator.generate_chunk(position), result)

    def pending_count(self):
        return len(self._held)


def burst_manager(engine):
    manager, world, _ = make_manager(engine)
    provider = manager.provider = BurstProvider(manager.generator)
    return manager, world, provider


def test_a_chunk_waiting_for_integration_is_not_requested_again(engine):
    manager, world, provider = burst_manager(engine)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    provider.deliver()  # every reply lands at once: more than one tick can integrate
    assert len(provider.requests) > 2 * manager.max_integrations_per_tick
    integrated = sum(manager.update([avatar], []).chunks_integrated for _ in range(20))
    assert set(provider.requests.values()) == {1}
    assert integrated == world.loaded_chunk_count == len(provider.requests)
    assert manager.pending_chunks == 0


def test_a_reply_for_a_loaded_chunk_is_dropped_and_not_counted(engine):
    manager, world, provider = burst_manager(engine)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    loaded = manager.preload_area(avatar.position, 48.0)
    provider.deliver()
    reports = [manager.update([avatar], []) for _ in range(20)]
    assert sum(report.chunks_integrated for report in reports) == 0
    assert sum(report.local_generations_completed for report in reports) == 0
    assert world.loaded_chunk_count == loaded
    assert manager.pending_chunks == 0


def test_chunks_load_from_storage_when_persisted(engine):
    storage = LocalDiskStorage(rng=engine.rng("disk"))
    manager, world, provider = make_manager(engine, storage=storage)
    generator = FlatTerrainGenerator(seed=1)
    # Persist the chunk the avatar stands on before it is ever requested.
    chunk = generator.generate_chunk(ChunkPos(0, 0))
    storage.write(ChunkPos(0, 0).key(), chunk_to_bytes(chunk))
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    engine.advance_by(1_000.0)
    manager.update([avatar], [])
    assert engine.metrics.counter("chunks_loaded_from_storage") >= 1


class ProbeCountingStorage(LocalDiskStorage):
    """Local disk storage that counts ``exists`` probes per key."""

    def __init__(self, rng):
        super().__init__(rng=rng)
        self.probes = Counter()

    def exists(self, key):
        self.probes[key] += 1
        return super().exists(key)


def test_each_requested_chunk_probes_storage_once(engine):
    storage = ProbeCountingStorage(engine.rng("disk"))
    stored = ChunkPos(0, 0)
    storage.write(stored.key(), chunk_to_bytes(FlatTerrainGenerator(seed=1).generate_chunk(stored)))
    manager, _, provider = make_manager(engine, storage=storage)
    avatar = avatar_at(0, 0)
    report = manager.update([avatar], [avatar])
    assert report.chunks_requested > 1
    assert len(storage.probes) == report.chunks_requested
    assert set(storage.probes.values()) == {1}
    # The one probe still routes each chunk: the stored one is loaded, not generated.
    assert provider.pending_count() == report.chunks_requested - 1


def test_terrain_retrieval_latency_is_recorded(engine):
    manager, _, _ = make_manager(engine)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    engine.advance_by(30_000.0)
    manager.update([avatar], [])
    histogram = engine.metrics.histogram("terrain_retrieval_ms")
    assert len(histogram) > 0
    assert min(histogram.samples) > 0


def test_view_range_reports_distance_to_missing_terrain(engine):
    manager, _, _ = make_manager(engine, view_distance=64.0)
    avatar = avatar_at(0, 0)
    report = manager.update([avatar], [avatar])
    # Nothing is loaded yet: the closest missing chunk is the one under the avatar.
    assert report.min_view_range_blocks < 16.0
    manager.preload_area(BlockPos(0, 65, 0), 96.0)
    report = manager.update([avatar], [])
    assert report.min_view_range_blocks == 64.0


def test_streaming_counts_only_new_chunks_for_moving_players(engine):
    manager, _, _ = make_manager(engine, view_distance=48.0)
    manager.preload_area(BlockPos(0, 65, 0), 300.0)
    avatar = avatar_at(0, 0)
    first = manager.update([avatar], [avatar])
    # The initial view download is not charged to the game loop.
    assert first.chunks_streamed == 0
    # Crossing into a new chunk streams the newly visible column of chunks.
    avatar.position = BlockPos(16, 65, 0)
    streamed = manager.update([avatar], [avatar]).chunks_streamed
    for _ in range(9):
        streamed += manager.update([avatar], []).chunks_streamed
    assert streamed > 0
    # Moving back over already-sent terrain streams nothing new.
    avatar.position = BlockPos(0, 65, 0)
    manager.update([avatar], [avatar])
    again = sum(manager.update([avatar], []).chunks_streamed for _ in range(5))
    assert again == 0


def test_eviction_removes_far_chunks_and_persists_dirty_ones(engine):
    storage = LocalDiskStorage(rng=engine.rng("disk"))
    manager, world, _ = make_manager(engine, storage=storage, view_distance=32.0)
    manager.preload_area(BlockPos(0, 65, 0), 48.0)
    # Dirty one chunk so eviction must persist it.
    world.set_block(BlockPos(0, 64, 0), world.get_block(BlockPos(0, 64, 0)))
    world.get_chunk(ChunkPos(0, 0)).dirty = True
    avatar = avatar_at(2000, 2000)
    evicted_total = manager.update([avatar], [avatar]).chunks_evicted
    for _ in range(manager.eviction_interval_ticks):
        evicted_total += manager.update([avatar], []).chunks_evicted
    assert evicted_total > 0
    assert storage.exists(ChunkPos(0, 0).key())
    assert not world.is_loaded(ChunkPos(0, 0))


def test_an_evicted_edit_comes_back_from_storage(engine):
    manager, world, _ = make_manager(engine, view_distance=32.0)
    manager.preload_area(BlockPos(0, 65, 0), 48.0)
    edited = BlockPos(3, 90, 3)
    world.set_block(edited, BlockType.STONE)
    away = avatar_at(2000, 2000)
    manager.update([away], [away])
    for _ in range(manager.eviction_interval_ticks):
        manager.update([away], [])
    assert not world.is_loaded(ChunkPos(0, 0))
    # The player returns: the chunk is read back, edit included, not regenerated.
    home = avatar_at(0, 0)
    manager.update([home], [home])
    for _ in range(10):
        engine.advance_by(1_000.0)
        manager.update([home], [])
    assert engine.metrics.counter("chunks_loaded_from_storage") >= 1
    assert world.get_block(edited) == BlockType.STONE


def test_a_protected_chunk_far_from_every_player_survives_eviction(engine):
    manager, world, _ = make_manager(engine, view_distance=32.0)
    manager.preload_area(BlockPos(0, 65, 0), 16.0)
    manager.protect([ChunkPos(0, 0)])
    avatar = avatar_at(5000, 5000)
    manager.update([avatar], [avatar])
    for _ in range(manager.eviction_interval_ticks):
        manager.update([avatar], [])
    assert world.is_loaded(ChunkPos(0, 0))


def test_forget_player_releases_view_references(engine):
    manager, _, _ = make_manager(engine)
    manager.preload_area(BlockPos(0, 65, 0), 200.0)
    avatar = avatar_at(0, 0, player_id=7)
    manager.update([avatar], [avatar])
    assert manager._chunk_refcounts
    manager.forget_player(7)
    assert not manager._chunk_refcounts


def test_persist_dirty_writes_every_dirty_chunk(engine):
    storage = LocalDiskStorage(rng=engine.rng("disk"))
    manager, world, _ = make_manager(engine, storage=storage)
    manager.preload_area(BlockPos(0, 65, 0), 32.0)
    for chunk in world:
        chunk.dirty = True
    written = manager.persist_dirty()
    assert written == world.loaded_chunk_count
    assert all(not chunk.dirty for chunk in world)
    assert all(storage.exists(chunk.position.key()) for chunk in world)
    # Nothing is dirty any more, so a second write-back writes nothing.
    assert manager.persist_dirty() == 0


def test_local_provider_throughput_is_limited_by_workers(engine):
    generator = FlatTerrainGenerator(seed=0)
    provider = LocalTerrainProvider(engine, generator, workers=1, work_ms=200.0)
    completions = []
    for index in range(6):
        provider.request(ChunkPos(index, 0), lambda chunk, result: completions.append(engine.now_ms))
    assert provider.pending_count() == 6
    engine.advance_by(650.0)
    # One worker at 200 ms per chunk finishes roughly three chunks in 650 ms.
    assert 2 <= len(completions) <= 4
    engine.advance_by(10_000.0)
    assert len(completions) == 6
    assert provider.pending_count() == 0


def test_local_provider_requires_a_worker(engine):
    with pytest.raises(ValueError):
        LocalTerrainProvider(engine, FlatTerrainGenerator(seed=0), workers=0)


def test_protect_and_unprotect_are_reference_counted(engine):
    manager, _, _ = make_manager(engine)
    pin = ChunkPos(1, 1)
    manager.protect([pin])
    manager.protect([pin])
    assert pin in manager.protected_chunks
    manager.unprotect([pin])
    assert pin in manager.protected_chunks
    manager.unprotect([pin])
    assert pin not in manager.protected_chunks
    # Unprotecting an unknown chunk is a harmless no-op.
    manager.unprotect([ChunkPos(9, 9)])


def test_protected_chunks_survive_eviction(engine):
    manager, world, _ = make_manager(engine)
    manager.preload_area(BlockPos(0, 65, 0), 64.0)
    pin = ChunkPos(0, 0)
    manager.protect([pin])
    # Move the player far away and run enough ticks to trigger eviction.
    far = avatar_at(2000, 2000)
    manager.preload_area(far.position, 48.0)
    manager.update([far], [far])
    for _ in range(5):
        manager.update([far], [])
    assert world.is_loaded(pin)
    manager.unprotect([pin])
    for _ in range(6):
        manager.update([far], [])
    assert not world.is_loaded(pin)


class _StripRegion:
    """Test region: only chunks with non-negative cx are owned."""

    def contains(self, position):
        return position.cx >= 0


def test_ownership_region_filters_loading_and_preload(engine):
    generator = FlatTerrainGenerator(seed=1)
    world = VoxelWorld()
    provider = LocalTerrainProvider(engine, generator, workers=2, work_ms=50.0)
    manager = ChunkManager(
        engine=engine,
        world=world,
        generator=generator,
        provider=provider,
        storage=LocalDiskStorage(rng=engine.rng("disk")),
        view_distance_blocks=48.0,
        region=_StripRegion(),
    )
    manager.preload_area(BlockPos(0, 65, 0), 64.0)
    assert all(position.cx >= 0 for position in world.loaded_chunk_positions)
    # An avatar straddling the region edge only requests owned chunks.
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    for _ in range(50):
        engine.advance_by(60.0)
        manager.update([avatar], [])
    assert all(position.cx >= 0 for position in world.loaded_chunk_positions)
    assert all(position.cx >= 0 for position in manager._chunk_refcounts)


# -- determinism regression: view-crossing order (DET003) ------------------------------


def test_view_crossing_queues_and_requests_chunks_in_sorted_order(engine):
    """Regression for the set-iteration fix in ``_refresh_player_view``.

    Newly visible chunks used to be queued in set-iteration order; the
    stream order to a client is an ordered, observable sink, so it must be
    the sorted chunk order regardless of how the required sets hash.
    """
    manager, _, _ = make_manager(engine, view_distance=64.0)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    assert manager._player_send_queue[avatar.player_id] == []

    # A diagonal jump across several chunk boundaries at once exposes the
    # iteration order of a large `required - old_required` set difference.
    avatar.position = BlockPos(40, 65, 24)
    manager.update([avatar], [avatar])
    queue = list(manager._player_send_queue[avatar.player_id])
    assert queue, "a boundary crossing must queue newly visible chunks"
    assert queue == sorted(queue)


def test_a_tick_requests_its_missing_chunks_in_sorted_order(engine):
    """Regression for requesting in set order (DET003).

    The request order decides which latency draw each chunk's load or
    generation gets, so a tick must request its missing chunks in sorted
    chunk order however the missing set hashes.
    """
    manager, _, provider = burst_manager(engine)
    avatar = avatar_at(0, 0)
    manager.update([avatar], [avatar])
    requested = list(provider.requests)
    assert len(requested) > 1
    assert requested == sorted(requested)
