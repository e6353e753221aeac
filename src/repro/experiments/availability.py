"""Availability under shard failure: recovery metrics for killed shards.

The paper argues (Section II) that a serverless MVE must survive component
failure without losing player state.  This experiment quantifies that claim
for the cluster hosts: it runs the ``shard_kill_at_peak`` chaos scenario —
one shard crashes mid-measurement and is respawned after a fixed outage —
and reports a Table-I-style recovery summary per configuration: MTTR in
lockstep rounds, sessions recovered and lost, messages that died with the
shard's inbox, player-ticks lost to the outage, and the P99 round duration
including the recovery transient.

Every run is executed twice with the same seed; the ``deterministic`` column
asserts that both runs produced identical fault timelines and recovery
records, the bit-reproducibility guarantee the fault subsystem makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.result import RunResult
from repro.api.spec import HostSpec, RunSpec, WorkloadSpec
from repro.experiments.harness import ExperimentSettings, format_table, run_twice
from repro.sim.metrics import percentile


@dataclass(frozen=True)
class AvailabilityCase:
    """One shard-kill configuration to measure."""

    game: str = "servo-cluster"
    shards: int = 2
    players: int = 24
    constructs: int = 8
    #: which shard dies (0 hosts the construct workload, so killing it also
    #: exercises construct re-placement)
    kill_shard: int = 0
    #: outage length before the replacement shard comes up (virtual seconds)
    respawn_after_s: float = 2.0

    @property
    def label(self) -> str:
        return f"{self.game} s{self.shards} kill#{self.kill_shard}"


@dataclass
class AvailabilityMeasurement:
    """Recovery statistics for one case (first of the two identical runs)."""

    case: AvailabilityCase
    kills: int
    mttr_rounds: float
    sessions_recovered: int
    sessions_lost: int
    messages_lost: int
    lost_player_ticks: int
    constructs_recovered: int
    round_p99_ms: float
    #: both same-seed runs produced identical timelines and recovery records
    deterministic: bool

    @property
    def recovery_pct(self) -> float:
        total = self.sessions_recovered + self.sessions_lost
        return 100.0 * self.sessions_recovered / total if total else 100.0


@dataclass
class AvailabilityResult:
    """The full sweep: one measurement per case."""

    settings: ExperimentSettings
    measurements: list[AvailabilityMeasurement] = field(default_factory=list)


DEFAULT_CASES: tuple[AvailabilityCase, ...] = (
    AvailabilityCase(kill_shard=0),
    AvailabilityCase(kill_shard=1),
    AvailabilityCase(game="opencraft-cluster", kill_shard=0),
)


def _observe(result: RunResult):
    """(recovery records, timeline digest, P99 round ms) of one run."""
    cluster = result.host
    return (
        list(cluster.recovery_records),
        cluster.fault_injector.timeline.digest(),
        percentile(result.scenario.tick_durations_ms, 99),
    )


def measure_availability(
    case: AvailabilityCase, settings: ExperimentSettings
) -> AvailabilityMeasurement:
    """Run one case twice (same seed) and fold its recovery records."""
    spec = RunSpec(
        host=HostSpec(game=case.game, shards=case.shards, game_config={"world_type": "flat"}),
        workload=WorkloadSpec(
            scenario="shard_kill_at_peak",
            params={
                "players": case.players,
                "constructs": case.constructs,
                "duration_s": settings.duration_s,
                "kill_at_s": settings.warmup_s + settings.duration_s / 2.0,
                "respawn_after_s": case.respawn_after_s,
                "shard": case.kill_shard,
            },
        ),
        seed=settings.seed,
        warmup_s=settings.warmup_s,
    )
    (records, _, p99), deterministic = run_twice(spec, _observe)
    return AvailabilityMeasurement(
        case=case,
        kills=len(records),
        mttr_rounds=(
            sum(record.downtime_rounds for record in records) / len(records)
            if records
            else 0.0
        ),
        sessions_recovered=sum(record.sessions_recovered for record in records),
        sessions_lost=sum(record.sessions_lost for record in records),
        messages_lost=sum(record.messages_lost for record in records),
        lost_player_ticks=sum(record.lost_player_ticks for record in records),
        constructs_recovered=sum(record.constructs_recovered for record in records),
        round_p99_ms=p99,
        deterministic=deterministic,
    )


def run_availability(
    settings: ExperimentSettings | None = None,
    cases: tuple[AvailabilityCase, ...] = DEFAULT_CASES,
) -> AvailabilityResult:
    """Measure shard-failure recovery for each case."""
    settings = settings or ExperimentSettings()
    result = AvailabilityResult(settings=settings)
    for case in cases:
        result.measurements.append(measure_availability(case, settings))
    return result


def format_availability(result: AvailabilityResult) -> str:
    """Render the recovery summary as a table."""
    headers = [
        "configuration",
        "kills",
        "MTTR (rounds)",
        "sessions recovered",
        "recovery %",
        "msgs lost",
        "player-ticks lost",
        "constructs",
        "round P99 (ms)",
        "deterministic",
    ]
    rows = []
    for m in result.measurements:
        rows.append(
            [
                m.case.label,
                str(m.kills),
                f"{m.mttr_rounds:.0f}",
                f"{m.sessions_recovered}/{m.sessions_recovered + m.sessions_lost}",
                f"{m.recovery_pct:.0f}%",
                str(m.messages_lost),
                str(m.lost_player_ticks),
                str(m.constructs_recovered),
                f"{m.round_p99_ms:.1f}",
                "yes" if m.deterministic else "NO",
            ]
        )
    title = (
        "Shard-failure recovery (shard killed mid-measurement, "
        f"respawned after its outage; seed {result.settings.seed})"
    )
    return f"{title}\n{format_table(headers, rows)}"
