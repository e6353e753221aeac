"""Tests for bot swarms, join schedules and scenarios."""

import pytest

from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.workload import JoinSchedule, Scenario, behaviour_a, custom, random_walk, sinc, star
from repro.workload.behavior import BoundedAreaBehavior
from repro.workload.bots import BotSwarm
from repro.workload.constructs import place_standard_constructs
from repro.workload.scenarios import TABLE_I_SCENARIOS


def make_server(seed=1):
    engine = SimulationEngine(seed=seed)
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    return server


def test_all_at_start_schedule_connects_every_bot_immediately():
    server = make_server()
    swarm = BotSwarm([BoundedAreaBehavior() for _ in range(5)], JoinSchedule.all_at_start())
    driver = swarm.install(server)
    assert swarm.connected_count == 5
    server.run_ticks(5, before_tick=driver)
    assert server.player_count == 5


def test_staggered_schedule_adds_players_over_time():
    server = make_server()
    swarm = BotSwarm(
        [BoundedAreaBehavior() for _ in range(6)], JoinSchedule.staggered(interval_s=1.0)
    )
    driver = swarm.install(server)
    assert swarm.connected_count == 0
    server.run_for_seconds(3.2, before_tick=driver)
    assert 2 <= server.player_count <= 4
    server.run_for_seconds(5.0, before_tick=driver)
    assert server.player_count == 6


def test_bots_generate_actions_every_tick():
    server = make_server()
    swarm = BotSwarm([BoundedAreaBehavior() for _ in range(3)])
    driver = swarm.install(server)
    server.run_ticks(20, before_tick=driver)
    assert server.stats.messages_processed >= 40


def test_place_standard_constructs_registers_them():
    server = make_server()
    constructs = place_standard_constructs(server, 7)
    assert len(constructs) == 7
    assert server.construct_count == 7
    with pytest.raises(ValueError):
        place_standard_constructs(server, -1)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(name="bad", players=-1)
    with pytest.raises(ValueError):
        Scenario(name="bad", players=1, duration_s=0)
    # A code that parses to a speed no bot can walk at fails here, not on tick one.
    with pytest.raises(ValueError, match="unknown behaviour code"):
        Scenario(name="bad", players=1, behavior_code="Snan")
    with pytest.raises(ValueError, match="unknown behaviour code"):
        custom(name="bad", players=1, behavior_code="Sinf")


def test_scenario_run_collects_tick_durations_and_qos():
    server = make_server()
    scenario = behaviour_a(players=4, constructs=2, duration_s=3.0)
    scenario.warmup_s = 1.0
    result = scenario.run(server)
    expected_ticks = int(scenario.duration_s * 20)
    assert abs(len(result.tick_durations_ms) - expected_ticks) <= 3
    assert result.players == 4
    assert result.constructs == 2
    assert 0.0 <= result.fraction_over_budget() <= 1.0
    assert result.meets_qos() == (result.fraction_over_budget() < 0.05)
    stats = result.tick_stats()
    assert stats.minimum > 0
    assert min(record.view_range_blocks for record in server.tick_records) > 0


def test_scenario_factories_cover_table_i_codes():
    assert behaviour_a(10, 5).behavior_code == "A"
    assert star(10, 3).behavior_code == "S3"
    assert star(10, 8).behavior_code == "S8"
    assert sinc().behavior_code == "Sinc"
    assert random_walk(10).behavior_code == "R"


def test_table_i_registry_contains_all_sections():
    assert set(TABLE_I_SCENARIOS) == {"IV-B", "IV-C", "IV-D", "IV-E", "IV-F", "IV-G"}
    for scenario in TABLE_I_SCENARIOS.values():
        assert scenario.players >= 1
        assert scenario.duration_s > 0
