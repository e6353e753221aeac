"""Figure 9: offload latency, invocation rate and cost versus simulation length.

The left panel shows the end-to-end latency of the construct-simulation
function for 50-, 100- and 200-step simulations; the right panel shows the
number of invocations per minute.  Section IV-C also derives an hourly cost
from these numbers, which the paper compares to the price of one c5n.xlarge VM
($0.216 per hour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.fig08_efficiency import OffloadRunResult, run_offload_configuration
from repro.experiments.harness import ExperimentSettings, format_table

SIMULATION_LENGTHS = (50, 100, 200)


@dataclass
class Fig09Result:
    """Latency, invocation-rate and cost measurements per simulation length."""

    runs: dict[int, OffloadRunResult] = field(default_factory=dict)


def run_fig09(
    settings: ExperimentSettings | None = None,
    lengths: tuple[int, ...] = SIMULATION_LENGTHS,
    construct_count: int = 50,
    tick_lead: int = 20,
) -> Fig09Result:
    """Reproduce Figure 9 (50 constructs, 20-tick lead, varying lengths)."""
    settings = settings or ExperimentSettings()
    result = Fig09Result()
    for steps in lengths:
        result.runs[steps] = run_offload_configuration(
            tick_lead, steps, settings, construct_count=construct_count
        )
    return result


def format_fig09(result: Fig09Result) -> str:
    rows = []
    for steps, run in sorted(result.runs.items()):
        latency = run.latency_stats()
        rows.append(
            [
                str(steps),
                f"{latency.mean:.0f}",
                f"{latency.p95:.0f}",
                f"{run.invocations_per_minute():.0f}",
                f"{run.cost_per_hour_usd():.3f}",
            ]
        )
    return format_table(
        ["sim length", "mean latency ms", "p95 latency ms", "invocations/min", "cost $/h"],
        rows,
    )
