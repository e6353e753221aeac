"""End-to-end tests of the assembled Servo server."""

import pytest

from repro.core import ServoConfig, build_servo_server
from repro.core.offload import SC_SIMULATION_FUNCTION
from repro.core.servo import PREFETCH_INTERVAL_TICKS
from repro.core.terrain_service import TERRAIN_GENERATION_FUNCTION
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.workload import BotSwarm, JoinSchedule, behavior_by_code, behaviour_a
from repro.workload.constructs import place_standard_constructs


def test_servo_config_validation():
    with pytest.raises(ValueError):
        ServoConfig(provider="gcp")
    with pytest.raises(ValueError):
        ServoConfig(steps_per_invocation=0)
    with pytest.raises(ValueError):
        ServoConfig(tick_lead=-1)


def test_build_servo_server_deploys_both_functions(engine):
    server = build_servo_server(engine, GameConfig(world_type="flat"))
    runtime = server.runtime
    assert runtime.platform.function_names() == sorted(
        [SC_SIMULATION_FUNCTION, TERRAIN_GENERATION_FUNCTION]
    )
    assert server.cost_model.name == "servo"
    assert server.name == "servo"


def test_servo_uses_azure_when_configured(engine):
    server = build_servo_server(
        engine, GameConfig(world_type="flat"), ServoConfig(provider="azure")
    )
    assert server.runtime.platform.provider.name == "azure-functions"
    assert "azure" in server.runtime.storage.remote.profile.name


def test_servo_runs_a_construct_workload_and_offloads(engine):
    server = build_servo_server(engine, GameConfig(world_type="flat"))
    scenario = behaviour_a(players=5, constructs=10, duration_s=5.0)
    scenario.warmup_s = 1.0
    result = scenario.run(server)
    runtime = server.runtime
    assert len(result.tick_durations_ms) > 80
    assert len(runtime.platform.billing.charges) >= 10
    assert engine.metrics.counter("offload_invocations") >= 10
    # Construct state really advanced (one step per tick).
    constructs = server.constructs.constructs()
    assert constructs[0].step == pytest.approx(len(server.tick_records), abs=1)


def test_servo_matches_opencraft_construct_states_functionally():
    """Offloading must not change what players observe."""
    seed = 77
    engine_servo = SimulationEngine(seed=seed)
    engine_base = SimulationEngine(seed=seed)
    servo = build_servo_server(engine_servo, GameConfig(world_type="flat"))
    opencraft = make_opencraft(engine_base, GameConfig(world_type="flat"))
    servo.chunks.preload_area(servo.config.spawn_position, 64.0)
    opencraft.chunks.preload_area(opencraft.config.spawn_position, 64.0)
    place_standard_constructs(servo, 3)
    place_standard_constructs(opencraft, 3)

    # Opencraft simulates constructs every other tick, Servo every tick, so
    # compare after the same number of construct steps: run Opencraft twice as
    # many ticks.
    servo.run_ticks(40)
    opencraft.run_ticks(80)
    servo_states = [
        [cell.state for cell in construct.cells]
        for construct in servo.constructs.constructs()
    ]
    opencraft_states = [
        [cell.state for cell in construct.cells]
        for construct in opencraft.constructs.constructs()
    ]
    assert servo_states == opencraft_states


def test_servo_terrain_generation_is_fully_serverless(engine):
    server = build_servo_server(engine, GameConfig(world_type="default"))
    server.chunks.preload_area(server.config.spawn_position, 64.0)
    session = server.connect_player()
    session.move(400, 65, 400)  # teleport far away: new terrain must be generated
    server.run_for_seconds(10.0)
    terrain_invocations = [
        invocation
        for invocation in server.runtime.platform.invocations
        if invocation.function_name == TERRAIN_GENERATION_FUNCTION
    ]
    assert terrain_invocations, "moving into new terrain must invoke the generation function"
    assert engine.metrics.counter("chunks_generated") > 0


def test_servo_persists_and_reloads_terrain_through_blob_storage(engine):
    server = build_servo_server(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 32.0)
    # Dirty a chunk, persist it, then check it exists in the (cached) blob store.
    from repro.world.block import BlockType
    from repro.world.coords import BlockPos

    server.world.set_block(BlockPos(1, 70, 1), BlockType.STONE)
    server.chunks.persist_dirty()
    server.runtime.storage.flush()
    assert any(key.startswith("chunk_") for key in server.runtime.storage.remote.list_keys())


def test_servo_cost_accounting_is_exposed(engine):
    server = build_servo_server(engine, GameConfig(world_type="flat"))
    scenario = behaviour_a(players=2, constructs=5, duration_s=3.0)
    scenario.warmup_s = 0.5
    scenario.run(server)
    assert server.runtime.billing.total_cost_usd() > 0


def test_servo_storage_goes_through_its_cache_and_prefetches(engine):
    from repro.world.coords import ChunkPos

    server = build_servo_server(engine, GameConfig(world_type="flat"))
    storage = server.runtime.storage
    assert server.storage is storage
    # Terrain persisted earlier sits in the blob store, not in the cache.
    for cx in range(-12, 13):
        storage.remote.write(ChunkPos(cx, 0).key(), b"chunk")
    server.connect_player()
    server.tick()  # tick 0 runs the prefetch hook
    assert engine.metrics.counter("prefetched_objects") > 0
    assert storage.cache.is_cached(ChunkPos(11, 0).key())
    # A write lands in the cache and reaches the blob store on flush.
    storage.write("meta", b"x")
    assert not storage.remote.exists("meta")
    storage.flush()
    assert storage.remote.exists("meta")


def test_servo_prefetch_hook_runs_only_on_configured_interval(engine):
    server = build_servo_server(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 32.0)
    server.connect_player()
    # Two prefetch runs; must not raise: the prefetcher sees an empty remote store.
    server.run_ticks(2 * PREFETCH_INTERVAL_TICKS)
    assert engine.metrics.counter("prefetched_objects") == 0


def test_star_walkers_leaving_the_preload_invoke_terrain_once_per_chunk():
    """Every chunk that needs generating is one FaaS invocation, never two.

    Star walkers outrun the eight-per-tick integration bound, so replies
    queue up for several ticks; a queued chunk must not be requested again.
    """
    engine = SimulationEngine(seed=42)
    server = build_servo_server(engine, GameConfig(world_type="default"))
    server.chunks.preload_area(server.config.spawn_position, 48.0)
    swarm = BotSwarm(
        [behavior_by_code("S8", direction_index=index) for index in range(4)],
        schedule=JoinSchedule.all_at_start(),
    )
    driver = swarm.install(server)
    for tick in range(200):
        driver(server, tick)
        server.tick()
    invocations = [
        invocation
        for invocation in server.runtime.platform.invocations
        if invocation.function_name == TERRAIN_GENERATION_FUNCTION
    ]
    positions = {invocation.result.position for invocation in invocations}
    assert len(positions) > 100
    assert len(invocations) == len(positions)
