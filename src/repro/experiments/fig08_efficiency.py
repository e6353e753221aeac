"""Figure 8: efficiency of speculative execution.

Left plot: efficiency distribution for tick leads of 0, 10, 20 and 40 ticks
(50-step simulations).  Right plot: efficiency for simulation lengths of 50,
100 and 200 steps (20-tick lead).  Efficiency is the fraction of an
invocation's requested steps that did not have to be recomputed locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constructs.library import build_sized_construct
from repro.core import ServoConfig, build_servo_server
from repro.experiments.harness import ExperimentSettings, format_table
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.sim.metrics import BoxplotStats, boxplot_stats
from repro.workload import Scenario
from repro.world.coords import BlockPos

TICK_LEADS = (0, 10, 20, 40)
SIMULATION_LENGTHS = (50, 100, 200)
#: simulation length of every run in the tick-lead sweep
LEAD_SWEEP_STEPS = 50
#: tick lead of every run in the simulation-length sweep
LENGTH_SWEEP_LEAD = 20
#: block count of the construct used by the latency-hiding experiments; its
#: per-step cost reproduces the paper's ~1.46 s latency for 200-step runs
OFFLOAD_CONSTRUCT_BLOCKS = 430
DEFAULT_CONSTRUCT_COUNT = 20


@dataclass
class OffloadRunResult:
    """Measurements from one (tick lead, simulation length) configuration."""

    efficiency_samples: list[float] = field(default_factory=list)
    latency_samples_ms: list[float] = field(default_factory=list)
    invocations: int = 0
    window_ms: float = 0.0
    cost_usd: float = 0.0

    def efficiency_stats(self) -> BoxplotStats:
        return boxplot_stats(self.efficiency_samples)

    def latency_stats(self) -> BoxplotStats:
        return boxplot_stats(self.latency_samples_ms)

    def invocations_per_minute(self) -> float:
        if self.window_ms <= 0:
            return 0.0
        return self.invocations * 60_000.0 / self.window_ms

    def cost_per_hour_usd(self) -> float:
        if self.window_ms <= 0:
            return 0.0
        return self.cost_usd * 3_600_000.0 / self.window_ms


def run_offload_configuration(
    tick_lead: int,
    steps: int,
    settings: ExperimentSettings | None = None,
    construct_count: int = DEFAULT_CONSTRUCT_COUNT,
) -> OffloadRunResult:
    """Run the latency-hiding workload for one (tick lead, steps) configuration.

    The workload follows Section IV-C: one player, a flat world and a
    population of aperiodic constructs (so the loop detector cannot collapse
    the offloaded work and every invocation simulates its full step budget).
    """
    settings = settings or ExperimentSettings()
    engine = SimulationEngine(seed=settings.seed)
    servo_config = ServoConfig(tick_lead=tick_lead, steps_per_invocation=steps)
    server = build_servo_server(engine, GameConfig(world_type="flat"), servo_config)
    server.chunks.preload_area(server.config.spawn_position, 160.0)
    for index in range(construct_count):
        construct = build_sized_construct(
            OFFLOAD_CONSTRUCT_BLOCKS, origin=BlockPos(index * 64, 64, 256), looping=False
        )
        server.place_construct(construct)

    scenario = Scenario(
        name=f"offload-lead{tick_lead}-steps{steps}",
        players=1,
        behavior_code="A",
        constructs=0,
        duration_s=settings.duration_s,
        preload_radius_blocks=0.0,
    )
    start_ms = engine.now_ms
    scenario.run(server)
    window_ms = engine.now_ms - start_ms

    runtime = server.runtime
    assert runtime is not None
    metrics = engine.metrics
    return OffloadRunResult(
        efficiency_samples=metrics.histogram("speculation_efficiency").samples,
        latency_samples_ms=metrics.histogram("offload_latency_ms").samples,
        invocations=int(metrics.counter("offload_invocations")),
        window_ms=window_ms,
        cost_usd=runtime.billing.total_cost_usd(),
    )


@dataclass
class Fig08Result:
    """Efficiency sweeps over tick lead and simulation length."""

    by_tick_lead: dict[int, OffloadRunResult] = field(default_factory=dict)
    by_length: dict[int, OffloadRunResult] = field(default_factory=dict)


def run_fig08(
    settings: ExperimentSettings | None = None,
    tick_leads: tuple[int, ...] = TICK_LEADS,
    lengths: tuple[int, ...] = SIMULATION_LENGTHS,
) -> Fig08Result:
    """Reproduce both panels of Figure 8."""
    settings = settings or ExperimentSettings()
    result = Fig08Result()
    for lead in tick_leads:
        result.by_tick_lead[lead] = run_offload_configuration(lead, LEAD_SWEEP_STEPS, settings)
    for length in lengths:
        result.by_length[length] = run_offload_configuration(LENGTH_SWEEP_LEAD, length, settings)
    return result


def format_fig08(result: Fig08Result) -> str:
    rows = []
    for lead, run in sorted(result.by_tick_lead.items()):
        stats = run.efficiency_stats()
        rows.append(["tick lead", str(lead), f"{stats.median:.2f}", f"{stats.p5:.2f}", f"{stats.mean:.2f}"])
    for length, run in sorted(result.by_length.items()):
        stats = run.efficiency_stats()
        rows.append(["sim length", str(length), f"{stats.median:.2f}", f"{stats.p5:.2f}", f"{stats.mean:.2f}"])
    return format_table(["sweep", "value", "median eff", "p5 eff", "mean eff"], rows)
