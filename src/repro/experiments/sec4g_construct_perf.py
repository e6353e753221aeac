"""Section IV-G: speculative simulation rate for small and medium constructs.

The paper measures, for constructs of 252 and 484 blocks, the rate at which
the offload function simulates 100-step batches: at least 95 % of samples
reach 488 and 105 updates per second respectively — 24.4x and 5.3x faster than
the 20 Hz simulation rate, which is what makes speculation effective for
small- and medium-sized constructs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constructs.library import build_sized_construct
from repro.core.offload import SC_SIMULATION_FUNCTION, OffloadRequest, SimulationHandler
from repro.core.servo import SIMULATION_FUNCTION_MEMORY_MB
from repro.experiments.harness import ExperimentSettings, format_table
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.sim import SimulationEngine
from repro.sim.metrics import percentile
from repro.world.coords import BlockPos

CONSTRUCT_SIZES = (252, 484)
STEPS_PER_SAMPLE = 100
#: the paper's reported p5 rates (updates per second) per construct size
PAPER_P5_RATES = {252: 488.0, 484: 105.0}
SIMULATION_RATE_HZ = 20.0


@dataclass
class Sec4gResult:
    """Simulation-rate samples (updates/second) per construct size."""

    rates_per_size: dict[int, list[float]] = field(default_factory=dict)

    def p5_rate(self, size: int) -> float:
        """The rate at least 95 % of samples achieve."""
        return percentile(self.rates_per_size[size], 5)

    def speedup_over_simulation_rate(self, size: int) -> float:
        return self.p5_rate(size) / SIMULATION_RATE_HZ


def run_sec4g(
    settings: ExperimentSettings | None = None,
    sizes: tuple[int, ...] = CONSTRUCT_SIZES,
    steps: int = STEPS_PER_SAMPLE,
    samples_per_size: int | None = None,
) -> Sec4gResult:
    """Reproduce the Section IV-G measurement."""
    settings = settings or ExperimentSettings()
    if samples_per_size is None:
        samples_per_size = max(20, settings.latency_samples // 25)
    result = Sec4gResult()
    for size in sizes:
        engine = SimulationEngine(seed=settings.seed + size)
        platform = FaasPlatform(engine, provider=AWS_LAMBDA)
        platform.register(
            FunctionDefinition(
                name=SC_SIMULATION_FUNCTION,
                handler=SimulationHandler(),
                memory_mb=SIMULATION_FUNCTION_MEMORY_MB,
            )
        )
        construct = build_sized_construct(size, origin=BlockPos(0, 64, 0), looping=False)
        rates = []
        for _ in range(samples_per_size):
            request = OffloadRequest.from_construct(construct, steps=steps, detect_loops=False)
            invocation = platform.invoke(SC_SIMULATION_FUNCTION, request)
            rates.append(steps / (invocation.execution_ms / 1000.0))
            # Advance the construct so consecutive samples cover different state
            # windows, then space invocations out to stay on warm environments.
            end_step = construct.step + steps
            construct.apply_row(invocation.result.sequence.row_at(end_step), end_step)
            engine.advance_by(1000.0)
        result.rates_per_size[size] = rates
    return result


def format_sec4g(result: Sec4gResult) -> str:
    rows = []
    for size in sorted(result.rates_per_size):
        p5 = result.p5_rate(size)
        paper = PAPER_P5_RATES.get(size)
        rows.append(
            [
                str(size),
                f"{paper:.0f}" if paper is not None else "-",
                f"{p5:.0f}",
                f"{result.speedup_over_simulation_rate(size):.1f}x",
            ]
        )
    return format_table(
        ["construct blocks", "paper p5 rate (updates/s)", "measured p5 rate", "speedup vs 20 Hz"],
        rows,
    )
