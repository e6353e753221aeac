"""Experiment harness: one module per table/figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function that takes a
:class:`~repro.experiments.harness.ExperimentSettings` (controlling duration,
seeds and sweep sizes so benchmarks can use scaled-down runs) and returns a
dataclass of results, plus a ``format_*`` helper that renders the same rows or
series the paper reports.  The registry maps experiment ids (``fig07a``,
``fig13``, ...) to their runners.

Every scenario run goes through :func:`repro.api.run_spec`: each experiment
states its run as a :class:`~repro.api.RunSpec` and reads what it reports off
the :class:`~repro.api.RunResult` (its scenario measurements and live host).
The exceptions are not scenario runs: Figure 8 places hand-sized constructs,
Figure 10 drives a retuned star swarm, and Figures 3, 11, 13 and Section IV-G
build no host.  The max-players searches share
:func:`~repro.experiments.max_players.search_last_supported`.
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
