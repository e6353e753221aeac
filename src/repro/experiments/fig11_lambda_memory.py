"""Figure 11: terrain-generation latency and cost-efficiency vs function memory.

On AWS Lambda the vCPU share grows with the memory allocation, so the latency
of generating one chunk (16x16x256 blocks) drops as memory grows — but
sublinearly, and small configurations show much larger variability.  The
second panel normalises a performance-to-cost ratio (inverse of latency times
memory), which favours small configurations except the smallest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.terrain_service import TERRAIN_GENERATION_FUNCTION, TerrainHandler, TerrainRequest
from repro.experiments.harness import ExperimentSettings, format_table
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.faas.resources import FIGURE_11_MEMORY_CONFIGS_MB
from repro.sim import SimulationEngine
from repro.sim.metrics import BoxplotStats, boxplot_stats


@dataclass
class Fig11Result:
    """Latency samples and derived cost-efficiency per memory configuration."""

    latency_samples_s: dict[int, list[float]] = field(default_factory=dict)

    def stats(self, memory_mb: int) -> BoxplotStats:
        return boxplot_stats(self.latency_samples_s[memory_mb])

    def performance_to_cost(self) -> dict[int, float]:
        """Normalised performance-to-cost ratio (1.0 is best), as in Figure 11b."""
        raw = {}
        for memory_mb, samples in self.latency_samples_s.items():
            mean_latency = sum(samples) / len(samples)
            raw[memory_mb] = 1.0 / (mean_latency * memory_mb)
        best = max(raw.values())
        return {memory_mb: value / best for memory_mb, value in raw.items()}


def run_fig11(
    settings: ExperimentSettings | None = None,
    memory_configs_mb: tuple[int, ...] = FIGURE_11_MEMORY_CONFIGS_MB,
    invocations_per_config: int | None = None,
) -> Fig11Result:
    """Reproduce Figure 11 by invoking the terrain function at each memory size."""
    settings = settings or ExperimentSettings()
    if invocations_per_config is None:
        invocations_per_config = max(20, settings.latency_samples // 20)
    result = Fig11Result()
    for memory_mb in memory_configs_mb:
        engine = SimulationEngine(seed=settings.seed + memory_mb)
        platform = FaasPlatform(engine, provider=AWS_LAMBDA)
        platform.register(
            FunctionDefinition(
                name=TERRAIN_GENERATION_FUNCTION,
                handler=TerrainHandler(),
                memory_mb=memory_mb,
            )
        )
        samples = []
        for index in range(invocations_per_config):
            invocation = platform.invoke(
                TERRAIN_GENERATION_FUNCTION,
                TerrainRequest(world_type="default", seed=7, cx=index, cz=-index),
            )
            samples.append(invocation.latency_ms / 1000.0)
            # Invocations are spread over time so most hit warm environments,
            # as in the paper's steady-state measurement.
            engine.advance_by(2000.0)
        result.latency_samples_s[memory_mb] = samples
    return result


def format_fig11(result: Fig11Result) -> str:
    ratios = result.performance_to_cost()
    rows = []
    for memory_mb in sorted(result.latency_samples_s):
        stats = result.stats(memory_mb)
        rows.append(
            [
                str(memory_mb),
                f"{stats.mean:.2f}",
                f"{stats.p95:.2f}",
                f"{stats.maximum:.2f}",
                f"{ratios[memory_mb]:.2f}",
            ]
        )
    return format_table(
        ["memory MB", "mean latency s", "p95 latency s", "max latency s", "perf/cost (norm.)"],
        rows,
    )
