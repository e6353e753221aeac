"""Cluster scalability: aggregate capacity vs shard count.

The paper's evaluation stops at one server (~200 players).  This experiment
partitions the world into zones served by cooperating shards and measures the
largest aggregate player count a 1-, 2- and 4-shard cluster sustains while
*every* shard's P99 tick duration stays within the 50 ms budget — the
cluster analogue of the paper's max-supported-players search (Section IV-B).
It also reports the player migrations the workload triggered (every fourth
player spawns next to a zone boundary and wanders across it) and their
handoff latencies through the shared session store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api.run import run_spec
from repro.api.spec import HostSpec, RunSpec, WorkloadSpec
from repro.experiments.harness import ExperimentSettings, format_table
from repro.experiments.max_players import search_last_supported
from repro.sim.metrics import percentile
from repro.workload.scenarios import TICK_BUDGET_MS


@dataclass(frozen=True)
class ClusterMeasurement:
    """One measured cluster run at a fixed shard and player count."""

    shard_count: int
    players: int
    #: P99 tick duration per shard over the measurement window
    per_shard_p99_ms: dict[str, float]
    #: completed player migrations over the whole run
    migrations: int
    #: median migration handoff latency (0.0 when no migrations occurred)
    migration_latency_p50_ms: float

    @property
    def worst_shard_p99_ms(self) -> float:
        return max(self.per_shard_p99_ms.values())

    def within_budget(self, budget_ms: float = TICK_BUDGET_MS) -> bool:
        return self.worst_shard_p99_ms <= budget_ms


@dataclass
class ClusterScalabilityRow:
    """Search outcome for one shard count."""

    shard_count: int
    max_players: int
    at_max: Optional[ClusterMeasurement]
    #: players evaluated -> worst shard P99 at that count
    evaluated: dict[int, float] = field(default_factory=dict)


@dataclass
class ClusterScalabilityResult:
    """Aggregate capacity as a function of shard count."""

    game: str
    budget_ms: float
    rows: list[ClusterScalabilityRow] = field(default_factory=list)

    def baseline_row(self) -> ClusterScalabilityRow:
        """The row with the fewest shards (the comparison baseline)."""
        if not self.rows:
            raise ValueError("the sweep produced no rows")
        return min(self.rows, key=lambda row: row.shard_count)


def durations_by_shard_ms(cluster, rounds: int) -> dict[str, list[float]]:
    """Each shard's tick durations over the cluster's last ``rounds`` rounds.

    Read from the run's tick log by shard name, so a shard killed inside the
    window keeps the ticks it ran and its replacement counts only its own.
    """
    since_ms = cluster.tick_records[-rounds].start_ms
    durations: dict[str, list[float]] = {}
    for record in cluster.engine.metrics.tick_log:
        if record.start_ms >= since_ms:
            durations.setdefault(record.shard, []).append(record.duration_ms)
    return durations


def measure_cluster(
    game: str, shards: int, players: int, settings: ExperimentSettings
) -> ClusterMeasurement:
    """Run one cluster scenario and collect per-shard and migration statistics."""
    result = run_spec(
        RunSpec(
            host=HostSpec(game=game, shards=shards, game_config={"world_type": "flat"}),
            workload=WorkloadSpec(scenario="behaviour_a", params={"players": players}),
            seed=settings.seed,
            duration_s=settings.duration_s,
            warmup_s=settings.warmup_s,
        )
    )
    cluster = result.host
    round_durations_ms = result.scenario.tick_durations_ms
    # The scenario measured the last len(round_durations_ms) rounds.
    shard_durations_ms = durations_by_shard_ms(cluster, len(round_durations_ms))
    per_shard_p99 = {name: percentile(ticks, 99) for name, ticks in shard_durations_ms.items()}
    migration_samples = [record.latency_ms for record in cluster.migration_records]
    return ClusterMeasurement(
        shard_count=shards,
        players=players,
        per_shard_p99_ms=per_shard_p99,
        migrations=len(migration_samples),
        migration_latency_p50_ms=(
            percentile(migration_samples, 50) if migration_samples else 0.0
        ),
    )


def find_cluster_max_players(
    game: str, shards: int, settings: ExperimentSettings
) -> ClusterScalabilityRow:
    """Binary-search the largest player count every shard serves within budget.

    Candidate counts scale with the shard count (an N-shard cluster is probed
    up to N times the single-server search ceiling).
    """
    candidates = list(
        range(settings.player_step, settings.max_players * shards + 1, settings.player_step)
    )
    row = ClusterScalabilityRow(shard_count=shards, max_players=0, at_max=None)
    measurements: dict[int, ClusterMeasurement] = {}

    def supports(players: int) -> bool:
        measurement = measure_cluster(game, shards, players, settings)
        measurements[players] = measurement
        row.evaluated[players] = measurement.worst_shard_p99_ms
        return measurement.within_budget()

    row.max_players = search_last_supported(candidates, supports)
    row.at_max = measurements.get(row.max_players)
    return row


def run_cluster_scalability(
    settings: ExperimentSettings | None = None,
    game: str = "servo-cluster",
    shard_counts: tuple[int, ...] = (1, 2, 4),
) -> ClusterScalabilityResult:
    """Measure aggregate max players for each shard count."""
    settings = settings or ExperimentSettings()
    result = ClusterScalabilityResult(game=game, budget_ms=TICK_BUDGET_MS)
    for shards in shard_counts:
        result.rows.append(find_cluster_max_players(game, shards, settings))
    return result


def format_cluster_scalability(result: ClusterScalabilityResult) -> str:
    """Render the shard-count sweep as a table."""
    baseline = result.baseline_row() if result.rows else None
    headers = [
        "shards",
        "max players",
        f"vs {baseline.shard_count} shard" if baseline else "vs baseline",
        "worst shard P99 (ms)",
        "migrations",
        "migration P50 (ms)",
    ]
    base = baseline.max_players if baseline else 0
    rows = []
    for row in result.rows:
        at_max = row.at_max
        rows.append(
            [
                str(row.shard_count),
                str(row.max_players),
                f"{row.max_players / base:.2f}x" if base else "n/a",
                f"{at_max.worst_shard_p99_ms:.1f}" if at_max else "n/a",
                str(at_max.migrations) if at_max else "0",
                f"{at_max.migration_latency_p50_ms:.1f}" if at_max else "n/a",
            ]
        )
    title = (
        f"Aggregate supported players, {result.game} "
        f"(0 constructs, budget {result.budget_ms:.0f} ms per shard)"
    )
    return f"{title}\n{format_table(headers, rows)}"
