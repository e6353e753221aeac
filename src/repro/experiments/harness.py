"""Shared experiment plumbing.

Experiments are parameterised by :class:`ExperimentSettings` so the same code
can run at paper scale (minutes of virtual time, fine-grained sweeps) or at
benchmark scale (seconds of virtual time, coarse sweeps) without changing any
logic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, TypeVar

from repro.api.hosts import build_host
from repro.api.registry import unknown_name_error
from repro.api.result import RunResult
from repro.api.run import run_spec
from repro.api.spec import RunSpec
from repro.core import ServoConfig
from repro.obs.report import format_table as format_table  # re-exported for the experiments
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload import GameHost

T = TypeVar("T")


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by every experiment runner."""

    #: base random seed; repetitions derive their own seeds from it
    seed: int = 42
    #: virtual seconds measured per configuration
    duration_s: float = 20.0
    #: step between candidate player counts in max-player searches
    player_step: int = 10
    #: largest player count considered
    max_players: int = 200
    #: repetitions for experiments that report distributions over runs
    repetitions: int = 3
    #: samples for pure latency-distribution experiments
    latency_samples: int = 2000
    #: virtual seconds of warm-up before measurements start (cluster sweeps)
    warmup_s: float = 5.0

    def scaled(self, **overrides) -> "ExperimentSettings":
        """A copy with some fields replaced (used by benchmarks)."""
        return replace(self, **overrides)


#: settings used by the pytest benchmarks: small enough for CI, same code paths
QUICK_SETTINGS = ExperimentSettings(
    duration_s=10.0, player_step=50, max_players=200, repetitions=2, latency_samples=500
)

#: settings that approximate the paper's experiment durations
PAPER_SETTINGS = ExperimentSettings(
    duration_s=60.0, player_step=10, max_players=200, repetitions=20, latency_samples=15000
)

#: named settings scales shared by the benchmarks' conftest and the CLI
SETTINGS_SCALES: dict[str, ExperimentSettings] = {
    "quick": QUICK_SETTINGS,
    "paper": PAPER_SETTINGS,
}


def settings_for_scale(scale: str = "quick") -> ExperimentSettings:
    """The named :class:`ExperimentSettings` scale ("quick" or "paper")."""
    if scale not in SETTINGS_SCALES:
        raise unknown_name_error("settings scale", scale, list(SETTINGS_SCALES))
    return SETTINGS_SCALES[scale]


def build_game_server(
    game: str,
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    servo_config: ServoConfig | None = None,
    shards: int | None = None,
) -> GameHost:
    """Build a game host by name, via the :mod:`repro.api.hosts` registry.

    Single-server names ("opencraft", "minecraft", "servo") return a
    :class:`~repro.server.GameServer`; cluster names ("opencraft-cluster",
    "servo-cluster") return a :class:`~repro.cluster.ClusterCoordinator` with
    ``shards`` zone shards.  Both satisfy the
    :class:`~repro.workload.GameHost` surface the experiments drive.  The
    ``servo_config`` and ``shards`` knobs are forwarded only when given;
    giving one to a variant that does not accept it is a ``ValueError``.
    """
    return build_host(
        game, engine, game_config or GameConfig(), servo_config=servo_config, shards=shards
    )


def run_twice(spec: RunSpec, observe: Callable[[RunResult], T]) -> tuple[T, bool]:
    """Run ``spec`` twice (same seed) and compare what ``observe`` reads off each run.

    Returns the first run's observation and whether both runs observed the
    same thing — the bit-reproducibility check the fault and interest
    experiments report in their ``deterministic`` column.
    """
    first = observe(run_spec(spec))
    second = observe(run_spec(spec))
    return first, first == second
