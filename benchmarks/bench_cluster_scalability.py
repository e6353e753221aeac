"""Benchmark: cluster scalability — aggregate capacity vs shard count.

This goes beyond the paper's single-server evaluation: the world is
partitioned into zones served by cooperating Servo shards that share one
simulation engine, FaaS platform and blob store.  Expected shape: aggregate
max players grows with shard count (a 4-shard cluster sustains at least twice
the single-shard maximum) while every shard's P99 tick duration stays within
the 50 ms budget, and boundary-spawned players migrate between shards with
their handoff latencies recorded.
"""

from repro.experiments.cluster_scalability import (
    format_cluster_scalability,
    run_cluster_scalability,
)
from repro.workload.scenarios import TICK_BUDGET_MS


def test_cluster_aggregate_capacity_scales_with_shards(benchmark, settings, report_sink):
    result = benchmark.pedantic(
        run_cluster_scalability,
        args=(settings,),
        kwargs={"game": "servo-cluster", "shard_counts": (1, 2, 4)},
        rounds=1,
        iterations=1,
    )
    report_sink.append(("Cluster scalability: max players vs shards", format_cluster_scalability(result)))

    rows = {row.shard_count: row for row in result.rows}
    single, quad = rows[1], rows[4]
    # A 4-shard cluster sustains at least twice the single-server population...
    assert single.max_players > 0
    assert quad.max_players >= 2 * single.max_players
    # ...with every shard inside the paper's 50 ms tick budget...
    assert quad.at_max is not None
    assert quad.at_max.worst_shard_p99_ms <= TICK_BUDGET_MS
    assert len(quad.at_max.per_shard_p99_ms) == 4
    # ...while players migrate between shards and the handoffs are measured.
    assert quad.at_max.migrations > 0
    assert quad.at_max.migration_latency_p50_ms > 0.0


def test_cluster_results_are_deterministic(settings, report_sink):
    tiny = settings.scaled(duration_s=3.0, player_step=100)
    first = run_cluster_scalability(tiny, game="servo-cluster", shard_counts=(2,))
    second = run_cluster_scalability(tiny, game="servo-cluster", shard_counts=(2,))
    assert first.rows[0].max_players == second.rows[0].max_players
    assert first.rows[0].evaluated == second.rows[0].evaluated
    assert first.rows[0].at_max == second.rows[0].at_max
