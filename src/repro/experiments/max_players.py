"""Maximum supported players search.

The paper defines the maximum number of supported players as the largest
player count for which fewer than 5 % of tick-duration samples exceed the
50 ms budget (Section IV-B).  The search walks the candidate player counts
with a binary search, exploiting that the over-budget fraction grows
monotonically with the player count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.api.result import RunResult
from repro.api.run import run_spec
from repro.api.spec import HostSpec, RunSpec, WorkloadSpec
from repro.experiments.harness import ExperimentSettings


def search_last_supported(candidates: list[int], supports: Callable[[int], bool]) -> int:
    """Largest candidate for which ``supports`` holds (0 if none).

    Binary search exploiting that support is monotone in the candidate value
    (more players never helps).  Shared by the single-server and cluster
    max-players searches.
    """
    low, high = 0, len(candidates) - 1
    best = 0
    while low <= high:
        middle = (low + high) // 2
        if supports(candidates[middle]):
            best = candidates[middle]
            low = middle + 1
        else:
            high = middle - 1
    return best


@dataclass
class MaxPlayersResult:
    """Result of one max-supported-players search."""

    game: str
    constructs: int
    max_players: int
    #: player count -> fraction of ticks over budget, for every count evaluated
    evaluated: dict[int, float] = field(default_factory=dict)


def run_behaviour_a(
    game: str,
    players: int,
    constructs: int,
    settings: ExperimentSettings,
    game_config: dict | None = None,
) -> RunResult:
    """One behaviour-A run (Figures 1 and 7) on a flat world unless overridden."""
    return run_spec(
        RunSpec(
            host=HostSpec(game=game, game_config=game_config or {"world_type": "flat"}),
            workload=WorkloadSpec(
                scenario="behaviour_a",
                params={"players": players, "constructs": constructs},
            ),
            seed=settings.seed,
            duration_s=settings.duration_s,
        )
    )


def find_max_players(
    game: str,
    constructs: int,
    settings: ExperimentSettings | None = None,
    game_config: dict | None = None,
) -> MaxPlayersResult:
    """Find the maximum supported player count for a game and construct count.

    ``game_config`` is a :class:`~repro.api.RunSpec` override dict replacing
    the default flat world — e.g. ``{"world_type": "flat",
    "interest_radius_chunks": 4}`` to measure the player ceiling that
    area-of-interest broadcast buys.
    """
    settings = settings or ExperimentSettings()
    candidates = list(
        range(settings.player_step, settings.max_players + 1, settings.player_step)
    )
    result = MaxPlayersResult(game=game, constructs=constructs, max_players=0)

    def supports(players: int) -> bool:
        run = run_behaviour_a(game, players, constructs, settings, game_config)
        result.evaluated[players] = run.fraction_over_budget()
        return run.meets_qos()

    result.max_players = search_last_supported(candidates, supports)
    return result
