"""Flash crowd at spawn: interest management under a population hotspot.

The ``flash_crowd_at_spawn`` chaos scenario converges the whole population on
one zone (behaviour ``C``).  This experiment runs it across the opencraft,
servo and cluster hosts, each with full fan-out and with
area-of-interest broadcast enabled, and reports a Table-I-style one-line
summary per configuration: tick P99, fraction of ticks over the 50 ms budget,
delta entries encoded, update batches flushed, and the largest staleness
observed at any flush — which must never exceed the configured dyconit bound.

Every configuration is run twice with the same seed; the ``deterministic``
column asserts the runs were bit-identical (the interest path draws no
randomness of its own, so it must preserve the simulation's determinism).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api.result import RunResult
from repro.api.spec import HostSpec, RunSpec, WorkloadSpec
from repro.experiments.harness import ExperimentSettings, format_table, run_twice
from repro.interest import MAX_STALENESS_TICKS
from repro.sim.metrics import CONSISTENCY_ERROR_HISTOGRAM, metric_name, percentile
from repro.workload.scenarios import TICK_BUDGET_MS

#: the interest radius used by the interest-enabled runs (chunks)
CROWD_INTEREST_RADIUS = 4


@dataclass(frozen=True)
class FlashCrowdCase:
    """One host configuration to drive through the flash crowd."""

    game: str = "opencraft"
    shards: Optional[int] = None
    players: int = 40
    interest_radius_chunks: Optional[int] = None

    @property
    def label(self) -> str:
        shard_suffix = f" s{self.shards}" if self.shards else ""
        mode = (
            f"interest r{self.interest_radius_chunks}"
            if self.interest_radius_chunks
            else "full fan-out"
        )
        return f"{self.game}{shard_suffix} {mode}"


@dataclass
class FlashCrowdMeasurement:
    """One configuration's crowd summary (first of the two identical runs)."""

    case: FlashCrowdCase
    tick_p99_ms: float
    fraction_over_budget: float
    updates_sent_total: int
    entries_flushed: int
    flushes: int
    staleness_max: float
    staleness_bound: int
    deterministic: bool

    @property
    def bounds_held(self) -> bool:
        return self.staleness_max <= self.staleness_bound


@dataclass
class FlashCrowdResult:
    """The full sweep: one measurement per case."""

    settings: ExperimentSettings
    measurements: list[FlashCrowdMeasurement] = field(default_factory=list)


def _cases(players: int) -> tuple[FlashCrowdCase, ...]:
    pairs = []
    for game, shards in (("opencraft", None), ("servo", None), ("opencraft-cluster", 2)):
        pairs.append(FlashCrowdCase(game=game, shards=shards, players=players))
        pairs.append(
            FlashCrowdCase(
                game=game,
                shards=shards,
                players=players,
                interest_radius_chunks=CROWD_INTEREST_RADIUS,
            )
        )
    return tuple(pairs)


def _observe(result: RunResult):
    """(scenario result, updates sent, entries, flushes, staleness max) of one run."""
    updates = sum(session.updates_sent for session in result.host.sessions.values())
    metrics = result.host.engine.metrics
    entries = int(metrics.counter("interest_entries_flushed"))
    flushes = int(metrics.counter("interest_flushes"))
    staleness_hist = metrics.histogram(metric_name(CONSISTENCY_ERROR_HISTOGRAM))
    staleness_max = staleness_hist.maximum() if len(staleness_hist) else 0.0
    return result.scenario, updates, entries, flushes, staleness_max


def measure_flash_crowd(
    case: FlashCrowdCase, settings: ExperimentSettings
) -> FlashCrowdMeasurement:
    """Run one case twice (same seed) and compare for bit-identity."""
    spec = RunSpec(
        host=HostSpec(
            game=case.game,
            shards=case.shards,
            game_config={
                "world_type": "flat",
                "interest_radius_chunks": case.interest_radius_chunks,
            },
        ),
        workload=WorkloadSpec(
            scenario="flash_crowd_at_spawn", params={"players": case.players}
        ),
        seed=settings.seed,
        duration_s=settings.duration_s,
        warmup_s=settings.warmup_s,
    )
    observed, deterministic = run_twice(spec, _observe)
    scenario, updates, entries, flushes, staleness_max = observed
    return FlashCrowdMeasurement(
        case=case,
        tick_p99_ms=percentile(scenario.tick_durations_ms, 99),
        fraction_over_budget=scenario.fraction_over_budget(TICK_BUDGET_MS),
        updates_sent_total=updates,
        entries_flushed=entries,
        flushes=flushes,
        staleness_max=staleness_max,
        staleness_bound=MAX_STALENESS_TICKS,
        deterministic=deterministic,
    )


def run_flash_crowd(
    settings: ExperimentSettings | None = None,
    cases: tuple[FlashCrowdCase, ...] | None = None,
) -> FlashCrowdResult:
    """Measure the flash-crowd hotspot for each host configuration."""
    settings = settings or ExperimentSettings()
    if cases is None:
        cases = _cases(players=min(40, settings.max_players))
    result = FlashCrowdResult(settings=settings)
    for case in cases:
        result.measurements.append(measure_flash_crowd(case, settings))
    return result


def format_flash_crowd(result: FlashCrowdResult) -> str:
    """Render the crowd summary as a table."""
    headers = [
        "configuration",
        "tick P99 (ms)",
        "over budget",
        "updates sent",
        "entries",
        "flushes",
        "staleness max",
        "bound held",
        "deterministic",
    ]
    rows = []
    for m in result.measurements:
        interest = bool(m.case.interest_radius_chunks)
        rows.append(
            [
                m.case.label,
                f"{m.tick_p99_ms:.1f}",
                f"{100.0 * m.fraction_over_budget:.1f}%",
                str(m.updates_sent_total),
                str(m.entries_flushed) if interest else "-",
                str(m.flushes) if interest else "-",
                f"{m.staleness_max:.0f}" if interest else "-",
                ("yes" if m.bounds_held else "NO") if interest else "-",
                "yes" if m.deterministic else "NO",
            ]
        )
    title = (
        "Flash crowd at spawn (whole population converges on one zone; "
        f"seed {result.settings.seed})"
    )
    return f"{title}\n{format_table(headers, rows)}"
