"""Wiring fault plans into hosts, and the empty-plan no-op guarantee."""

import pytest

from repro.cluster import build_servo_cluster
from repro.faults import FaultPlan, install_faults
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine


def test_empty_plan_installs_nothing(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    assert install_faults(server, None) is None
    assert install_faults(server, FaultPlan()) is None
    assert install_faults(server, FaultPlan.from_dict({})) is None
    assert server.fault_injector is None
    assert server.message_channel is None
    assert server.degradation is None


def test_empty_plan_run_is_bit_identical_to_no_plan():
    def run(install):
        engine = SimulationEngine(seed=9)
        server = make_opencraft(engine, GameConfig(world_type="flat"))
        server.chunks.preload_area(server.config.spawn_position, 96.0)
        if install:
            install_faults(server, FaultPlan())
        session = server.connect_player("alice")
        for step in range(20):
            session.move(step, 64, step)
            server.tick()
        return [record.duration_ms for record in server.tick_records]

    assert run(install=False) == run(install=True)


def test_faas_section_requires_a_platform(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    with pytest.raises(ValueError):
        install_faults(server, FaultPlan.from_dict({"faas": {"failure_rate": 0.5}}))


def test_shard_kills_require_a_cluster(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    with pytest.raises(ValueError):
        install_faults(
            server, FaultPlan.from_dict({"shards": [{"at_ms": 100.0, "shard": 0}]})
        )


def test_cluster_install_wires_every_shard_and_future_respawns(engine):
    cluster = build_servo_cluster(engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    plan = FaultPlan.from_dict(
        {
            "net": {"drop_rate": 0.1},
            "degradation": {"budget_ms": 50.0},
            "shards": [{"at_ms": 200.0, "shard": 1, "respawn_after_ms": 500.0}],
        }
    )
    injector = install_faults(cluster, plan)
    assert cluster.fault_injector is injector
    channels = {id(shard.message_channel) for shard in cluster.shards}
    assert len(channels) == 1 and None not in channels  # one shared wire
    assert all(shard.degradation is not None for shard in cluster.shards)
    for _ in range(30):
        cluster.tick()
    # The respawned shard was wired like the originals.
    assert cluster.shards[1].name.endswith("-r1")
    assert cluster.shards[1].message_channel is cluster.shards[0].message_channel
    assert cluster.shards[1].degradation is not None


def test_faas_injector_attaches_to_every_servo_shard_platform(engine):
    cluster = build_servo_cluster(engine, GameConfig(world_type="flat"), shards=2)
    injector = install_faults(
        cluster, FaultPlan.from_dict({"faas": {"failure_rate": 0.2}})
    )
    for shard in cluster.shards:
        assert shard.runtime.platform.fault_injector is injector


def test_run_spec_carries_and_validates_fault_plans():
    from repro.api.spec import RunSpec

    spec = RunSpec.from_dict(
        {
            "host": {"game": "servo"},
            "workload": {"scenario": "behaviour_a", "params": {"players": 2}},
            "faults": {"faas": {"failure_rate": 0.1}},
        }
    )
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert "faults" in spec.to_dict()
    with pytest.raises(ValueError):
        RunSpec.from_dict(
            {
                "host": {"game": "servo"},
                "workload": {"scenario": "behaviour_a"},
                "faults": {"faas": {"failure_rate": 7}},
            }
        )


def test_chaos_scenarios_are_registered():
    from repro.api.scenarios import build_scenario

    for name in ("offload_brownout", "shard_kill_at_peak", "flaky_network"):
        scenario = build_scenario(name)
        assert scenario.faults, name
        FaultPlan.from_dict(scenario.faults)  # validates
