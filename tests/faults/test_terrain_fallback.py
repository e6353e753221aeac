"""Serverless terrain under faults: the plan's bounded retries, then local fallback."""

import pytest

from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    make_terrain_handler,
)
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.faults import FaultInjector, FaultPlan
from repro.server.chunkmanager import ChunkManager
from repro.server.entities import Avatar
from repro.storage.local import LocalDiskStorage
from repro.world.coords import BlockPos, ChunkPos
from repro.world.terrain import DefaultTerrainGenerator, make_terrain_generator
from repro.world.world import VoxelWorld


def make_provider(engine, plan=None):
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=TERRAIN_GENERATION_FUNCTION,
            handler=make_terrain_handler(),
            memory_mb=1769,
        )
    )
    if plan is not None:
        platform.fault_injector = FaultInjector(engine, FaultPlan.from_dict(plan))
    return ServerlessTerrainProvider(engine, platform, world_type="flat", seed=7)


def collect(provider, engine, position=ChunkPos(3, 4), horizon_ms=60_000.0):
    delivered = []
    provider.request(position, lambda chunk, result: delivered.append((chunk, result)))
    engine.advance_by(horizon_ms)
    return delivered


def test_dead_platform_falls_back_to_local_generation(engine):
    plan = {"faas": {"failure_rate": 1.0, "retry": {"max_attempts": 3}}}
    provider = make_provider(engine, plan)
    delivered = collect(provider, engine)
    assert len(delivered) == 1
    chunk, result = delivered[0]
    assert result.source == "local-fallback"
    assert result.consumed_local_cpu
    # Generation is pure: the fallback chunk equals the serverless one.
    reference = make_terrain_generator("flat", seed=7).generate_chunk(ChunkPos(3, 4))
    assert (chunk.blocks == reference.blocks).all()
    assert engine.metrics.counter("faas_failures") == 3.0
    assert engine.metrics.counter("faas_retries") == 2.0
    assert engine.metrics.counter("faas_giveups") == 1.0
    assert engine.metrics.counter("terrain_local_fallbacks") == 1.0
    assert provider.pending_count() == 0


def test_terrain_retries_follow_the_plan_then_fall_back(engine):
    plan = {"faas": {"failure_rate": 1.0, "retry": {"max_attempts": 5}}}
    provider = make_provider(engine, plan)
    delivered = []
    arrived_ms = []

    def on_chunk(chunk, result):
        delivered.append(result)
        arrived_ms.append(engine.now_ms)

    provider.request(ChunkPos(3, 4), on_chunk)
    engine.advance_by(60_000.0)
    attempts = provider.platform.invocations_for(TERRAIN_GENERATION_FUNCTION)
    assert len(attempts) == 5
    assert [attempt.status for attempt in attempts] == ["failure"] * 5
    assert engine.metrics.counter("faas_retries") == 4.0
    assert engine.metrics.counter("faas_giveups") == 1.0
    (result,) = delivered
    assert result.source == "local-fallback"
    # The reply lands when the last attempt completes, and its latency (the
    # chunk manager's terrain_retrieval_ms sample) spans the whole ordeal.
    assert arrived_ms == [attempts[-1].completed_ms]
    assert result.latency_ms == pytest.approx(
        attempts[-1].completed_ms - attempts[0].submitted_ms
    )
    assert result.latency_ms > attempts[-1].latency_ms


def test_flaky_platform_usually_recovers_without_fallback():
    from repro.sim import SimulationEngine

    engine = SimulationEngine(seed=21)
    provider = make_provider(
        engine, {"faas": {"failure_rate": 0.3, "retry": {"max_attempts": 4}}}
    )
    delivered = []
    for index in range(10):
        provider.request(
            ChunkPos(index, 0), lambda chunk, result: delivered.append(result)
        )
    engine.advance_by(120_000.0)
    assert len(delivered) == 10
    assert sum(1 for r in delivered if r.source == "faas-generation") > 0
    # Either path, terrain always arrives.
    assert all(r.source in ("faas-generation", "local-fallback") for r in delivered)


def test_healthy_platform_is_unaffected(engine):
    provider = make_provider(engine, plan=None)
    delivered = collect(provider, engine)
    assert len(delivered) == 1
    assert delivered[0][1].source == "faas-generation"
    assert engine.metrics.counter("faas_retries") == 0.0
    assert engine.metrics.counter("terrain_local_fallbacks") == 0.0


#: ``test_terrain_golden.GOLDEN[1]``: seed, chunk and content hash of a default-world chunk
PIN_SEED, PIN_CHUNK, PIN_HASH = 42, ChunkPos(-3, 4), 16089575735109284089


@pytest.mark.parametrize("fault", ["failure_rate", "throttle_rate"])
def test_a_faulted_tick_falls_back_to_the_pinned_chunk_and_keeps_nothing_prepared(engine, fault):
    handler = make_terrain_handler()
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(FunctionDefinition(name=TERRAIN_GENERATION_FUNCTION, handler=handler))
    platform.fault_injector = FaultInjector(
        engine, FaultPlan.from_dict({"faas": {fault: 1.0, "retry": {"max_attempts": 2}}})
    )
    provider = ServerlessTerrainProvider(engine, platform, world_type="default", seed=PIN_SEED)
    world = VoxelWorld()
    manager = ChunkManager(
        engine=engine,
        world=world,
        generator=DefaultTerrainGenerator(seed=PIN_SEED),
        provider=provider,
        storage=LocalDiskStorage(rng=engine.rng("disk")),
        view_distance_blocks=16.0,
    )
    batches = []
    prepare = handler.prepare
    handler.prepare = lambda requests: (batches.append(len(requests)), prepare(requests))
    avatar = Avatar(player_id=1, name="p1", position=BlockPos(-3 * 16 + 8, 65, 4 * 16 + 8))
    requested = manager.update([avatar], [avatar]).chunks_requested
    assert requested > 1 and batches == [requested]  # the tick's requests, one stacked call
    # A throttled attempt never runs the handler: its prepared chunk is dropped.
    assert handler.prepared_count() == 0
    engine.advance_by(60_000.0)
    manager.update([avatar], [])
    assert engine.metrics.counter("terrain_local_fallbacks") == requested
    assert world.get_chunk(PIN_CHUNK).content_hash() == PIN_HASH
    assert handler.prepared_count() == 0
