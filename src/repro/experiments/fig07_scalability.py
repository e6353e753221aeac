"""Figure 7: scalability under simulated-construct workloads.

Figure 7a sweeps the construct count (0, 50, 100, 200) and reports, per game,
the maximum number of supported players.  Figure 7b fixes 200 constructs and
reports the tick-duration distribution for 10..200 connected players per game.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentSettings, format_table
from repro.experiments.max_players import find_max_players, run_behaviour_a
from repro.sim.metrics import BoxplotStats

GAMES = ("opencraft", "minecraft", "servo")
CONSTRUCT_COUNTS = (0, 50, 100, 200)

#: the paper's Figure 7a values (max supported players)
PAPER_FIG07A = {
    ("opencraft", 0): 200, ("opencraft", 50): 120, ("opencraft", 100): 10, ("opencraft", 200): 0,
    ("minecraft", 0): 110, ("minecraft", 50): 100, ("minecraft", 100): 90, ("minecraft", 200): 0,
    ("servo", 0): 190, ("servo", 50): 170, ("servo", 100): 150, ("servo", 200): 120,
}


@dataclass
class Fig07aResult:
    """Maximum supported players per (game, construct count)."""

    max_players: dict[tuple[str, int], int] = field(default_factory=dict)
    evaluated: dict[tuple[str, int], dict[int, float]] = field(default_factory=dict)


def run_fig07a(
    settings: ExperimentSettings | None = None,
    construct_counts: tuple[int, ...] = CONSTRUCT_COUNTS,
) -> Fig07aResult:
    """Reproduce Figure 7a."""
    settings = settings or ExperimentSettings()
    result = Fig07aResult()
    for game in GAMES:
        for constructs in construct_counts:
            search = find_max_players(game, constructs, settings)
            result.max_players[(game, constructs)] = search.max_players
            result.evaluated[(game, constructs)] = search.evaluated
    return result


def format_fig07a(result: Fig07aResult) -> str:
    rows = []
    for (game, constructs), measured in sorted(result.max_players.items()):
        paper = PAPER_FIG07A.get((game, constructs))
        rows.append(
            [
                game,
                str(constructs),
                str(paper) if paper is not None else "-",
                str(measured),
            ]
        )
    return format_table(["game", "constructs", "paper max players", "measured max players"], rows)


@dataclass
class Fig07bResult:
    """Tick-duration distributions at 200 constructs, per game and player count."""

    constructs: int
    distributions: dict[tuple[str, int], BoxplotStats] = field(default_factory=dict)


def run_fig07b(
    settings: ExperimentSettings | None = None,
    player_counts: tuple[int, ...] | None = None,
    constructs: int = 200,
) -> Fig07bResult:
    """Reproduce Figure 7b."""
    settings = settings or ExperimentSettings()
    if player_counts is None:
        player_counts = tuple(
            range(settings.player_step, settings.max_players + 1, settings.player_step)
        )
    result = Fig07bResult(constructs=constructs)
    for game in GAMES:
        for players in player_counts:
            run = run_behaviour_a(game, players, constructs, settings)
            result.distributions[(game, players)] = run.tick_stats()
    return result


def format_fig07b(result: Fig07bResult) -> str:
    rows = []
    for (game, players), stats in sorted(result.distributions.items()):
        rows.append(
            [
                game,
                str(players),
                f"{stats.p5:.1f}",
                f"{stats.median:.1f}",
                f"{stats.p95:.1f}",
                f"{stats.maximum:.1f}",
            ]
        )
    return format_table(
        ["game", "players", "p5 ms", "median ms", "p95 ms", "max ms"], rows
    )
