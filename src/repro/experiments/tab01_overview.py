"""Table I: overview of the experiments.

This module renders the experiment overview table from the scenario registry
and checks that every scenario is runnable.  It is the configuration
counterpart of the per-figure experiments: the paper's Table I maps each
evaluation section to its workload, environment and duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentSettings, format_table
from repro.workload.scenarios import TABLE_I_SCENARIOS

#: the paper's Table I rows: section -> (focus, components serverless, world)
PAPER_TABLE_I = {
    "IV-B": ("SC: system scalability", "SC offloaded (L+S)", "flat"),
    "IV-C": ("SC: latency hiding", "SC offloaded (L+S)", "flat"),
    "IV-D": ("TG: QoS", "terrain generation (S)", "default"),
    "IV-E": ("TG: system scalability", "terrain generation + storage (L+S)", "default"),
    "IV-F": ("RS: performance variability", "remote storage (S)", "default"),
    "IV-G": ("SC: performance", "SC offloaded (S)", "flat"),
}


@dataclass
class Tab01Result:
    """The rendered experiment overview."""

    rows: list[list[str]] = field(default_factory=list)


def run_tab01(settings: ExperimentSettings | None = None) -> Tab01Result:
    """Build the Table I overview from the scenario registry.

    Takes (and ignores) ``settings`` so every registry entry is called the
    same way; the table is configuration only.
    """
    result = Tab01Result()
    for section, scenario in sorted(TABLE_I_SCENARIOS.items()):
        focus, serverless, world = PAPER_TABLE_I.get(section, ("-", "-", "-"))
        result.rows.append(
            [
                section,
                focus,
                serverless,
                str(scenario.players),
                scenario.behavior_code,
                world,
                f"{scenario.duration_s:.0f}s",
            ]
        )
    return result


def format_tab01(result: Tab01Result) -> str:
    return format_table(
        ["section", "focus", "serverless components", "players", "behaviour", "world", "duration"],
        result.rows,
    )
