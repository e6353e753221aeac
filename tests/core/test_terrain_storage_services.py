"""Tests for Servo's serverless terrain provider and cached remote storage."""

import numpy as np
import pytest

from repro.core.storage_service import ServoStorageService
from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    TerrainHandler,
    TerrainRequest,
    terrain_generation_work_ms,
)
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.server.entities import Avatar
from repro.storage.blob import AZURE_BLOB_STANDARD, BlobStorage
from repro.world.coords import BlockPos, ChunkPos, block_to_chunk
from repro.world.terrain import DefaultTerrainGenerator, FlatTerrainGenerator, make_terrain_generator


def make_platform(engine, memory_mb=2048):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=TERRAIN_GENERATION_FUNCTION,
            handler=TerrainHandler(),
            memory_mb=memory_mb,
        )
    )
    return platform


def test_terrain_handler_generates_the_requested_chunk(engine):
    handler = TerrainHandler()
    output = handler(TerrainRequest(world_type="default", seed=11, cx=3, cz=-2))
    chunk = output.value
    assert chunk.position == ChunkPos(3, -2)
    assert output.work_ms_single_vcpu == pytest.approx(
        terrain_generation_work_ms(DefaultTerrainGenerator(11))
    )
    with pytest.raises(TypeError):
        handler({"cx": 0})


def test_terrain_handler_matches_local_generation_exactly():
    handler = TerrainHandler()
    remote = handler(TerrainRequest(world_type="default", seed=5, cx=1, cz=1)).value
    local = make_terrain_generator("default", seed=5).generate_chunk(ChunkPos(1, 1))
    assert np.array_equal(remote.blocks, local.blocks)


def test_flat_chunks_are_cheaper_than_default_chunks():
    assert terrain_generation_work_ms(FlatTerrainGenerator(0)) < terrain_generation_work_ms(
        DefaultTerrainGenerator(0)
    )


def test_serverless_provider_delivers_chunks_in_virtual_time(engine):
    platform = make_platform(engine)
    provider = ServerlessTerrainProvider(engine, platform, world_type="flat", seed=3)
    delivered = []
    provider.request(ChunkPos(0, 0), lambda chunk, result: delivered.append((chunk, result)))
    assert provider.pending_count() == 1
    assert delivered == []
    engine.advance_by(60_000.0)
    assert len(delivered) == 1
    chunk, result = delivered[0]
    assert chunk.position == ChunkPos(0, 0)
    assert result.source == "faas-generation"
    assert result.consumed_local_cpu is False
    assert result.latency_ms > 0
    assert provider.pending_count() == 0


def test_serverless_provider_scales_with_concurrent_requests(engine):
    platform = make_platform(engine)
    provider = ServerlessTerrainProvider(engine, platform, world_type="flat", seed=3)
    delivered = []
    for index in range(30):
        provider.request(ChunkPos(index, 0), lambda chunk, result: delivered.append(result))
    engine.advance_by(30_000.0)
    assert len(delivered) == 30
    # Concurrency: the slowest delivery is far sooner than 30 sequential generations.
    assert max(result.latency_ms for result in delivered) < 15_000.0


def make_storage_service(engine):
    blob = BlobStorage(rng=engine.rng("blob"), profile=AZURE_BLOB_STANDARD)
    service = ServoStorageService(
        engine=engine,
        remote=blob,
        view_distance_blocks=64.0,
        prefetch_margin_blocks=32.0,
        cache_capacity_objects=512,
    )
    return service, blob


def test_storage_service_read_through_and_metrics(engine):
    service, blob = make_storage_service(engine)
    blob.write("key", b"payload")
    operation = service.read("key")
    assert operation.data == b"payload"
    assert len(engine.metrics.histogram("storage_read_ms")) == 1
    assert service.exists("key")
    assert "key" in service.list_keys()
    assert service.size_bytes("key") == 7


def test_storage_service_prefetches_terrain_near_players(engine):
    service, blob = make_storage_service(engine)
    # Persist terrain around the origin.
    for chunk_pos in [ChunkPos(cx, cz) for cx in range(-8, 9) for cz in range(-8, 9)]:
        blob.write(chunk_pos.key(), b"chunk")
    avatar = Avatar(player_id=1, name="p", position=BlockPos(0, 65, 0))
    fetched = service.prefetch_for_avatars([avatar])
    assert fetched > 0
    # The player's own chunk is now a cache hit.
    operation = service.read(block_to_chunk(avatar.position).key())
    assert operation.hit is True
    assert operation.latency_ms < 40.0
    # A second prefetch pass fetches nothing new.
    assert service.prefetch_for_avatars([avatar]) == 0
    assert service.cache.stats.hits > 0


def test_storage_service_prefetch_skips_empty_remote(engine):
    service, _ = make_storage_service(engine)
    avatar = Avatar(player_id=1, name="p", position=BlockPos(0, 65, 0))
    assert service.prefetch_for_avatars([avatar]) == 0


def test_storage_service_prefetch_skips_a_remote_without_chunks(engine, monkeypatch):
    service, blob = make_storage_service(engine)
    blob.write("session_bot-1", b"state")  # a cluster's session record
    calls = []
    exists = blob.exists
    monkeypatch.setattr(blob, "exists", lambda key: calls.append(key) or exists(key))
    avatar = Avatar(player_id=1, name="p", position=BlockPos(0, 65, 0))
    assert service.prefetch_for_avatars([avatar]) == 0
    assert calls == []
    # One persisted chunk makes planning worth it again; deleting it ends that.
    blob.write(ChunkPos(0, 0).key(), b"chunk")
    assert service.prefetch_for_avatars([avatar]) == 1
    assert calls
    blob.delete(ChunkPos(0, 0).key())
    assert blob.chunk_object_count == 0


def test_storage_service_flush_writes_back_dirty_objects(engine):
    service, blob = make_storage_service(engine)
    service.write("chunk_1_1", b"data")
    assert not blob.exists("chunk_1_1")
    assert service.flush() == 1
    assert blob.exists("chunk_1_1")


#: ``test_terrain_golden.GOLDEN[1]``: seed, chunk and content hash of a default-world chunk
PIN_SEED, (PIN_CX, PIN_CZ), PIN_HASH = 42, (-3, 4), 16089575735109284089


def test_a_prepared_chunk_is_served_once_and_equals_the_pin():
    handler = TerrainHandler()
    request = TerrainRequest(world_type="default", seed=PIN_SEED, cx=PIN_CX, cz=PIN_CZ)
    handler.prepare([
        request,
        TerrainRequest(world_type="default", seed=PIN_SEED, cx=PIN_CX + 1, cz=PIN_CZ),
        TerrainRequest(world_type="flat", seed=PIN_SEED, cx=PIN_CX, cz=PIN_CZ),
    ])
    assert len(handler._prepared) == 3
    prepared = handler(request)
    assert prepared.value.content_hash() == PIN_HASH
    assert len(handler._prepared) == 2
    # Served once: asking again generates the chunk alone, with the same bytes and work.
    alone = handler(request)
    assert alone.value is not prepared.value
    assert alone.value.content_hash() == PIN_HASH
    assert alone.work_ms_single_vcpu == prepared.work_ms_single_vcpu
    assert len(handler._prepared) == 2
    handler.discard_prepared()
    assert len(handler._prepared) == 0
