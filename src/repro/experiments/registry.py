"""Registry of all reproduced experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.api.registry import unknown_name_error
from repro.experiments.availability import format_availability, run_availability
from repro.experiments.cluster_scalability import (
    format_cluster_scalability,
    run_cluster_scalability,
)
from repro.experiments.fig01_headline import format_fig01, run_fig01
from repro.experiments.fig03_storage_latency import format_fig03, run_fig03
from repro.experiments.fig07_scalability import (
    format_fig07a,
    format_fig07b,
    run_fig07a,
    run_fig07b,
)
from repro.experiments.fig08_efficiency import format_fig08, run_fig08
from repro.experiments.fig09_latency_invocations import format_fig09, run_fig09
from repro.experiments.fig10_terrain_qos import format_fig10, run_fig10
from repro.experiments.fig11_lambda_memory import format_fig11, run_fig11
from repro.experiments.fig12_terrain_scalability import (
    format_fig12a,
    format_fig12b,
    run_fig12a,
    run_fig12b,
)
from repro.experiments.fig13_cache_latency import format_fig13, run_fig13
from repro.experiments.flash_crowd import format_flash_crowd, run_flash_crowd
from repro.experiments.harness import ExperimentSettings
from repro.experiments.sec4g_construct_perf import format_sec4g, run_sec4g
from repro.experiments.tab01_overview import format_tab01, run_tab01


@dataclass(frozen=True)
class ExperimentEntry:
    """One reproduced table or figure."""

    experiment_id: str
    description: str
    runner: Callable[..., Any]
    formatter: Callable[[Any], str]


EXPERIMENTS: dict[str, ExperimentEntry] = {
    "fig01": ExperimentEntry("fig01", "Headline maximum supported players", run_fig01, format_fig01),
    "fig03": ExperimentEntry("fig03", "Blob storage download latency", run_fig03, format_fig03),
    "fig07a": ExperimentEntry("fig07a", "Max players vs construct count", run_fig07a, format_fig07a),
    "fig07b": ExperimentEntry("fig07b", "Tick-duration distributions at 200 constructs", run_fig07b, format_fig07b),
    "fig08": ExperimentEntry("fig08", "Speculation efficiency vs tick lead and length", run_fig08, format_fig08),
    "fig09": ExperimentEntry("fig09", "Offload latency, invocation rate and cost", run_fig09, format_fig09),
    "fig10": ExperimentEntry("fig10", "Serverless terrain generation QoS", run_fig10, format_fig10),
    "fig11": ExperimentEntry("fig11", "Terrain generation vs Lambda memory", run_fig11, format_fig11),
    "fig12a": ExperimentEntry("fig12a", "Supported players for S3/S8 workloads", run_fig12a, format_fig12a),
    "fig12b": ExperimentEntry("fig12b", "Supported players for the R workload", run_fig12b, format_fig12b),
    "fig13": ExperimentEntry("fig13", "Terrain retrieval latency with caching", run_fig13, format_fig13),
    "sec4g": ExperimentEntry("sec4g", "Construct simulation rate by size", run_sec4g, format_sec4g),
    "tab01": ExperimentEntry("tab01", "Experiment overview", run_tab01, format_tab01),
    "availability": ExperimentEntry(
        "availability",
        "Shard-failure recovery: MTTR, sessions recovered, lost work (beyond the paper)",
        run_availability,
        format_availability,
    ),
    "cluster": ExperimentEntry(
        "cluster",
        "Aggregate max players of zone-partitioned clusters (beyond the paper)",
        run_cluster_scalability,
        format_cluster_scalability,
    ),
    "flash-crowd": ExperimentEntry(
        "flash-crowd",
        "Flash crowd at spawn: interest management vs full fan-out (beyond the paper)",
        run_flash_crowd,
        format_flash_crowd,
    ),
}


def run_experiment(
    experiment_id: str, settings: ExperimentSettings | None = None, **kwargs
) -> tuple[Any, str]:
    """Run an experiment by id and return (result, formatted report).

    Unknown ids raise the shared registry error (a ``ValueError`` that is
    also a ``KeyError``) listing every registered experiment.
    """
    if experiment_id not in EXPERIMENTS:
        raise unknown_name_error("experiment", experiment_id, list(EXPERIMENTS))
    entry = EXPERIMENTS[experiment_id]
    result = entry.runner(settings, **kwargs)
    return result, entry.formatter(result)
