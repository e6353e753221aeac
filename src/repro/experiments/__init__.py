"""Experiment harness: one module per table/figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function that takes a
:class:`~repro.experiments.harness.ExperimentSettings` (controlling duration,
seeds and sweep sizes so benchmarks can use scaled-down runs) and returns a
dataclass of results, plus a ``format_*`` helper that renders the same rows or
series the paper reports.  The registry maps experiment ids (``fig07a``,
``fig13``, ...) to their runners.
"""

from repro.experiments.cluster_scalability import (
    ClusterScalabilityResult,
    run_cluster_scalability,
)
from repro.experiments.harness import (
    ExperimentSettings,
    PAPER_SETTINGS,
    QUICK_SETTINGS,
    build_game_server,
    settings_for_scale,
)
from repro.experiments.max_players import MaxPlayersResult, find_max_players
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = [
    "ExperimentSettings",
    "QUICK_SETTINGS",
    "PAPER_SETTINGS",
    "settings_for_scale",
    "build_game_server",
    "find_max_players",
    "MaxPlayersResult",
    "ClusterScalabilityResult",
    "run_cluster_scalability",
    "EXPERIMENTS",
    "run_experiment",
]
