"""Shard crash-recovery: kill, limbo, respawn, evacuation."""

import pytest

from repro.check import check
from repro.cluster import build_opencraft_cluster
from repro.faults import FaultPlan, install_faults
from repro.server import GameConfig
from repro.sim import SimulationEngine

from fault_helpers import fault_count, fault_time_ms


def make_cluster(engine, shards=2):
    cluster = build_opencraft_cluster(engine, GameConfig(world_type="flat"), shards=shards)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    return cluster


def kill_plan(at_ms, shard=0, respawn_after_ms=500.0):
    return FaultPlan.from_dict(
        {"shards": [{"at_ms": at_ms, "shard": shard, "respawn_after_ms": respawn_after_ms}]}
    )


def run_rounds(cluster, rounds):
    for _ in range(rounds):
        cluster.tick()
        assert check(cluster) == []


def homed_on(cluster, slot):
    return [s for s in cluster.sessions.values() if cluster.home[s.player_id] == slot]


def test_killed_shard_recovers_every_session(engine):
    cluster = make_cluster(engine)
    install_faults(cluster, kill_plan(at_ms=200.0, shard=0))
    for index in range(8):
        cluster.connect_player(f"bot-{index}")
    on_zero = homed_on(cluster, 0)
    assert on_zero
    old_shard = cluster.shards[0]
    run_rounds(cluster, 40)

    assert len(cluster.recovery_records) == 1
    record = cluster.recovery_records[0]
    assert record.shard_index == 0
    assert record.sessions_lost == 0
    assert record.sessions_recovered == len(on_zero)
    assert record.downtime_rounds > 0
    killed_ms = fault_time_ms(cluster.fault_injector.timeline, "shard.kill")
    assert record.respawned_ms >= killed_ms + 500.0
    # Every evacuated session is alive on the replacement shard.
    replacement = cluster.shards[0]
    assert replacement is not old_shard
    for session in on_zero:
        assert not session.disconnected
        assert cluster.home[session.player_id] == 0
        assert replacement.sessions[session.player_id] is session
    assert cluster.player_count == 8
    assert engine.metrics.counter("shard_kills") == 1.0
    assert engine.metrics.counter("shards_recovered") == 1.0
    assert engine.metrics.counter("sessions_recovered") == len(on_zero)


def test_evacuated_sessions_round_trip_through_the_session_store(engine):
    cluster = make_cluster(engine)
    install_faults(cluster, kill_plan(at_ms=200.0, shard=0))
    for index in range(4):
        cluster.connect_player(f"bot-{index}")
    stranded = homed_on(cluster, 0)
    stranded[0].chat("before the crash")
    run_rounds(cluster, 40)
    assert cluster.recovery_records[0].sessions_recovered == len(stranded)
    for session in stranded:
        assert cluster.session_store.exists(f"session_{session.name}")
    assert stranded[0].avatar.chat_messages_sent == 1


def test_downtime_accumulates_lost_player_ticks(engine):
    cluster = make_cluster(engine)
    install_faults(cluster, kill_plan(at_ms=100.0, shard=0, respawn_after_ms=1000.0))
    for index in range(6):
        cluster.connect_player(f"bot-{index}")
    players_on_zero = len(homed_on(cluster, 0))
    run_rounds(cluster, 40)
    record = cluster.recovery_records[0]
    assert record.lost_player_ticks == record.downtime_rounds * players_on_zero
    assert engine.metrics.counter("lost_player_ticks") == record.lost_player_ticks


def test_respawned_shard_gets_a_generation_suffix_and_constructs_back(engine):
    from repro.constructs.library import build_wire_line
    from repro.world.coords import BlockPos

    cluster = make_cluster(engine)
    install_faults(cluster, kill_plan(at_ms=100.0, shard=0))
    construct = build_wire_line(8, BlockPos(0, 64, 0), powered=True)
    cluster.place_construct(construct)
    assert construct in cluster.shards[0].constructs.constructs()
    original_name = cluster.shards[0].name
    run_rounds(cluster, 30)
    assert cluster.shards[0].name == f"{original_name}-r1"
    assert cluster.recovery_records[0].constructs_recovered == 1
    # The same live construct object keeps ticking on the replacement.
    assert construct in cluster.shards[0].constructs.constructs()
    assert construct.step > 0


def test_connects_during_downtime_land_on_an_alive_shard(engine):
    cluster = make_cluster(engine)
    install_faults(cluster, kill_plan(at_ms=100.0, shard=0, respawn_after_ms=5000.0))
    run_rounds(cluster, 5)  # the kill has fired, shard 0 is down
    assert len(cluster.recovery_records) == 0
    session = cluster.connect_player("latecomer")
    assert cluster.home[session.player_id] == 1
    run_rounds(cluster, 3)
    assert not session.disconnected


def test_killing_the_last_alive_shard_is_refused(engine):
    cluster = make_cluster(engine)
    plan = FaultPlan.from_dict(
        {
            "shards": [
                {"at_ms": 100.0, "shard": 0, "respawn_after_ms": 60_000.0},
                {"at_ms": 200.0, "shard": 1, "respawn_after_ms": 60_000.0},
            ]
        }
    )
    injector = install_faults(cluster, plan)
    cluster.connect_player("alice")
    run_rounds(cluster, 20)
    # The second kill was ignored: one shard must always survive.
    assert engine.metrics.counter("shard_kills") == 1.0
    assert fault_count(injector.timeline, "shard.kill.ignored") == 1
    assert cluster.player_count == 1


def test_two_same_seed_chaos_runs_are_bit_identical():
    def run(seed):
        engine = SimulationEngine(seed=seed)
        cluster = make_cluster(engine)
        install_faults(cluster, kill_plan(at_ms=300.0, shard=0))
        for index in range(6):
            cluster.connect_player(f"bot-{index}")
        run_rounds(cluster, 40)
        return (
            cluster.fault_injector.timeline.digest(),
            cluster.recovery_records,
            [record.duration_ms for record in cluster.tick_records],
            engine.now_ms,
        )

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_kills_without_a_shard_factory_are_rejected(engine):
    from repro.cluster import ClusterCoordinator, WorldPartitioner

    # A cluster cannot exist without a shard factory, so every cluster a
    # kill plan is installed on can respawn the shard it kills.
    cluster = make_cluster(engine)
    with pytest.raises(TypeError, match="shard_factory"):
        ClusterCoordinator(
            engine=engine,
            shards=cluster.shards,
            partitioner=WorldPartitioner(2),
            config=cluster.config,
            session_store=cluster.session_store,
        )
