"""Fast tests of the experiment harness (the heavy sweeps run as benchmarks)."""

import pytest

from repro.experiments import EXPERIMENTS, ExperimentSettings, build_game_server, run_experiment
from repro.experiments.fig03_storage_latency import run_fig03
from repro.experiments.fig11_lambda_memory import run_fig11
from repro.experiments.fig12_terrain_scalability import supported_players_from_series
from repro.experiments.fig13_cache_latency import build_access_trace, run_fig13
from repro.experiments.harness import format_table
from repro.experiments.max_players import find_max_players
from repro.experiments.sec4g_construct_perf import run_sec4g
from repro.experiments.tab01_overview import format_tab01, run_tab01
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.scenarios import TABLE_I_SCENARIOS

TINY = ExperimentSettings(duration_s=4.0, player_step=100, max_players=200, repetitions=1,
                          latency_samples=200)


def test_registry_lists_every_reproduced_artifact():
    expected = {
        "fig01", "fig03", "fig07a", "fig07b", "fig08", "fig09", "fig10",
        "fig11", "fig12a", "fig12b", "fig13", "sec4g", "tab01", "cluster",
        "availability", "flash-crowd",
    }
    assert set(EXPERIMENTS) == expected
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_build_game_server_dispatch():
    engine = SimulationEngine(seed=0)
    assert build_game_server("opencraft", engine, GameConfig(world_type="flat")).name == "opencraft"
    assert build_game_server("servo", SimulationEngine(seed=0), GameConfig(world_type="flat")).name == "servo"
    with pytest.raises(ValueError):
        build_game_server("fortnite", engine)


def test_build_game_server_unknown_name_lists_cluster_variants():
    with pytest.raises(ValueError) as excinfo:
        build_game_server("minecraft-cluster", SimulationEngine(seed=0))
    assert "servo-cluster" in str(excinfo.value)
    assert "opencraft-cluster" in str(excinfo.value)


def test_build_game_server_cluster_dispatch():
    cluster = build_game_server(
        "servo-cluster", SimulationEngine(seed=0), GameConfig(world_type="flat"), shards=2
    )
    assert cluster.name == "servo-cluster"
    assert cluster.shard_count == 2
    baseline = build_game_server(
        "opencraft-cluster", SimulationEngine(seed=0), GameConfig(world_type="flat"), shards=3
    )
    assert baseline.name == "opencraft-cluster"
    assert [shard.name for shard in baseline.shards] == [
        "opencraft-shard-0", "opencraft-shard-1", "opencraft-shard-2",
    ]


def test_cluster_scalability_experiment_tiny_run():
    from repro.experiments.cluster_scalability import (
        format_cluster_scalability,
        run_cluster_scalability,
    )

    tiny = TINY.scaled(duration_s=2.0, max_players=100, warmup_s=1.0)
    result = run_cluster_scalability(tiny, game="servo-cluster", shard_counts=(1, 2))
    rows = {row.shard_count: row for row in result.rows}
    assert rows[1].max_players > 0
    assert rows[2].max_players >= rows[1].max_players
    report = format_cluster_scalability(result)
    assert "shards" in report and "migrations" in report


def test_format_table_aligns_columns():
    table = format_table(["col", "x"], [["a", "1"], ["bbbb", "22"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2


def test_settings_scaled_returns_modified_copy():
    scaled = TINY.scaled(duration_s=99.0)
    assert scaled.duration_s == 99.0
    assert TINY.duration_s == 4.0


def test_find_max_players_monotone_result():
    result = find_max_players("opencraft", constructs=0, settings=TINY)
    assert result.max_players >= 100
    assert result.evaluated


def test_fig03_runs_and_orders_tiers():
    result = run_fig03(TINY)
    assert result.stats("player", "premium").median < result.stats("terrain", "standard").median


def test_fig11_runs_with_few_invocations():
    result = run_fig11(TINY, memory_configs_mb=(512, 4096), invocations_per_config=5)
    assert result.stats(512).mean > result.stats(4096).mean


def test_fig13_trace_and_run():
    trace = build_access_trace(players=2, duration_s=10.0)
    assert trace.all_chunks
    result = run_fig13(TINY, players=2, duration_s=10.0)
    assert set(result.latencies_ms) == {"local", "serverless", "serverless+cache"}


def test_sec4g_small_sample_run():
    result = run_sec4g(TINY, sizes=(60,), samples_per_size=3)
    assert result.p5_rate(60) > 20.0


def test_supported_players_series_analysis():
    times = [float(t) for t in range(0, 20_000, 50)]
    durations = [10.0 if t < 10_000 else 80.0 for t in times]
    players = [t / 1000.0 for t in times]
    supported = supported_players_from_series(times, durations, times, players)
    assert 5 <= supported <= 10
    # A series that never crosses supports everyone offered.
    all_good = supported_players_from_series(times, [10.0] * len(times), times, players)
    assert all_good == int(max(players))
    with pytest.raises(ValueError):
        supported_players_from_series([], [], [], [])


def test_tab01_overview_and_scenarios():
    overview = run_tab01()
    rendered = format_tab01(overview)
    assert "IV-B" in rendered
    assert TABLE_I_SCENARIOS["IV-D"].behavior_code == "Sinc"
