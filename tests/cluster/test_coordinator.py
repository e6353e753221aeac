"""Tests for the cluster coordinator: lockstep rounds, migration, routing."""

import pytest

from repro.check import check
from repro.cluster import build_opencraft_cluster, build_servo_cluster
from repro.cluster.partition import ZONE_WIDTH_CHUNKS
from repro.constructs.library import build_wire_line
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload import BotSwarm, behavior_by_code
from repro.world.coords import CHUNK_SIZE, BlockPos


def make_cluster(engine, shards=2, game="opencraft"):
    config = GameConfig(world_type="flat")
    if game == "servo":
        cluster = build_servo_cluster(engine, config, shards=shards)
    else:
        cluster = build_opencraft_cluster(engine, config, shards=shards)
    cluster.chunks.preload_area(config.spawn_position, 96.0)
    return cluster


def test_cluster_requires_matching_shard_and_zone_counts(engine):
    cluster = make_cluster(engine, shards=2)
    from repro.cluster import ClusterCoordinator, WorldPartitioner

    with pytest.raises(ValueError):
        ClusterCoordinator(
            engine=engine,
            shards=cluster.shards,
            partitioner=WorldPartitioner(3),
            config=cluster.config,
            session_store=cluster.session_store,
            shard_factory=cluster.shard_factory,
        )


def test_players_are_spread_across_shards(engine):
    cluster = make_cluster(engine, shards=2)
    for index in range(8):
        cluster.connect_player(f"bot-{index}")
    assert cluster.player_count == 8
    assert all(shard.player_count > 0 for shard in cluster.shards)
    # Player ids are unique across the whole cluster.
    ids = [proxy.player_id for proxy in cluster.sessions.values()]
    assert len(set(ids)) == 8


def test_every_fourth_player_spawns_at_a_zone_boundary(engine):
    cluster = make_cluster(engine, shards=3)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(8)]
    base = cluster.config.spawn_position
    partitioner = cluster.partitioner
    assert sessions[3].avatar.position == partitioner.boundary_spawn(0, base)
    assert sessions[7].avatar.position == partitioner.boundary_spawn(1, base)
    others = [session for index, session in enumerate(sessions) if index % 4 != 3]
    assert [session.avatar.position for session in others] == [
        partitioner.zone_spawn(zone % 3, base) for zone in range(len(others))
    ]


def test_lockstep_round_advances_clock_once_by_the_slowest_shard(engine):
    cluster = make_cluster(engine, shards=2)
    cluster.connect_player("a")
    before = engine.now_ms
    record = cluster.tick()
    # Both shards ticked at the same virtual start time.
    assert all(shard.tick_records[-1].start_ms == before for shard in cluster.shards)
    assert record.duration_ms == max(
        shard.tick_records[-1].duration_ms for shard in cluster.shards
    )
    assert engine.now_ms >= before + cluster.config.tick_interval_ms


def test_boundary_crossing_migrates_player_and_preserves_state(engine):
    cluster = make_cluster(engine, shards=2)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]  # every 4th player spawns next to a zone boundary
    assert cluster.home[mover.player_id] == 0
    source = cluster.shards[0]

    # Let the bot do some work, then step across the zone edge.
    mover.chat("hello")
    cluster.tick()
    position = mover.avatar.position
    mover.move(position.x + 5, position.y, position.z)
    cluster.tick()

    assert cluster.home[mover.player_id] == 1
    assert len(cluster.migration_records) == 1
    record = cluster.migration_records[0]
    assert (record.from_shard, record.to_shard) == (0, 1)
    assert record.latency_ms > 0.0
    # Avatar state survived the handoff; the id did not change.
    assert mover.avatar.chat_messages_sent == 1
    assert mover.player_id == record.player_id
    # The target serves the very session the client holds; the source none.
    assert cluster.shards[1].sessions[mover.player_id] is mover
    assert mover.player_id not in source.sessions
    assert check(cluster) == []
    # The handoff was recorded in the engine metrics.
    assert len(engine.metrics.histogram("migration_ms")) == 1
    assert engine.metrics.counter("migrations") == 1


def test_updates_sent_accumulates_across_migrations(engine):
    cluster = make_cluster(engine, shards=2)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]
    cluster.tick()
    before = mover.updates_sent
    assert before > 0
    position = mover.avatar.position
    mover.move(position.x + 5, position.y, position.z)
    cluster.tick()
    assert [record.player_id for record in cluster.migration_records] == [mover.player_id]
    assert mover.updates_sent >= before


def test_migrated_player_keeps_acting_on_the_new_shard(engine):
    cluster = make_cluster(engine, shards=2)
    for index in range(4):
        session = cluster.connect_player(f"bot-{index}")
    mover = session  # the boundary-spawned one
    position = mover.avatar.position
    mover.move(position.x + 5, position.y, position.z)
    cluster.tick()
    assert cluster.home[mover.player_id] == 1
    mover.chat("still here")
    cluster.tick()
    assert mover.avatar.chat_messages_sent == 1


def test_constructs_route_to_the_owning_shard(engine):
    cluster = make_cluster(engine, shards=2)
    boundary_x = ZONE_WIDTH_CHUNKS * CHUNK_SIZE
    left = build_wire_line(length=3, origin=BlockPos(4, 66, 4))
    right = build_wire_line(length=3, origin=BlockPos(boundary_x + 4, 66, 4))
    # Straddles the boundary: it belongs to the zone of its first cell.
    straddler = build_wire_line(length=4, origin=BlockPos(boundary_x - 2, 66, 8))
    for construct in (left, right, straddler):
        cluster.place_construct(construct)
        assert check(cluster) == []
    assert [len(shard.constructs.constructs()) for shard in cluster.shards] == [2, 1]
    cluster.tick()
    assert check(cluster) == []


def test_shards_only_load_chunks_in_their_zone(engine):
    cluster = make_cluster(engine, shards=2)
    for shard in cluster.shards:
        for position in shard.world.loaded_chunk_positions:
            assert shard.region.contains(position)


def test_disconnect_through_the_coordinator(engine):
    cluster = make_cluster(engine, shards=2)
    session = cluster.connect_player("solo")
    cluster.disconnect_player(session.player_id)
    assert session.disconnected
    assert cluster.player_count == 0
    with pytest.raises(KeyError):
        cluster.disconnect_player(session.player_id)


def drop_on_its_shard(cluster, player_id):
    """The shard drops the player on its own (e.g. a client timeout it detected)."""
    (shard,) = [shard for shard in cluster.shards if player_id in shard.sessions]
    shard.disconnect_player(player_id)


def test_a_shard_side_disconnect_is_the_clusters_disconnect(engine):
    cluster = make_cluster(engine, shards=2)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    dropped = sessions[1]
    drop_on_its_shard(cluster, dropped.player_id)
    assert cluster.sessions[dropped.player_id].disconnected
    assert cluster.player_count == 3
    assert check(cluster) == []
    # The coordinator knows, and refuses the second disconnect itself.
    with pytest.raises(KeyError) as excinfo:
        cluster.disconnect_player(dropped.player_id)
    assert excinfo.traceback[-1].path.name == "coordinator.py"


def test_a_swarm_keeps_ticking_after_a_shard_drops_one_of_its_bots(engine):
    cluster = make_cluster(engine, shards=2)
    swarm = BotSwarm([behavior_by_code("A", direction_index=index) for index in range(4)])
    driver = swarm.install(cluster)
    cluster.run_ticks(5, before_tick=driver)
    drop_on_its_shard(cluster, swarm.bots[1].session.player_id)
    cluster.run_ticks(20, before_tick=driver)
    assert sum(bot.connected for bot in swarm.bots) == 3
    assert cluster.player_count == 3
    assert check(cluster) == []


def test_servo_cluster_shares_platform_and_blob(engine):
    cluster = make_cluster(engine, shards=2, game="servo")
    first, second = cluster.shards
    assert first.runtime is not None and second.runtime is not None
    assert first.runtime.platform is second.runtime.platform
    assert first.runtime.storage.remote is second.runtime.storage.remote
    # Migration state goes through the shared blob store.
    assert cluster.session_store is first.runtime.storage.remote
