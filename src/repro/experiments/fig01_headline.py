"""Figure 1: headline maximum number of supported players.

The paper's opening figure compares the maximum number of supported players of
Servo (150), Minecraft (90) and Opencraft (10) under the 100-construct
workload — the same data as the 100-construct row of Figure 7a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentSettings, format_table
from repro.experiments.fig07_scalability import run_fig07a

PAPER_VALUES = {"servo": 150, "minecraft": 90, "opencraft": 10}
HEADLINE_CONSTRUCTS = 100


@dataclass
class HeadlineResult:
    """Measured maximum players per game for the headline workload."""

    constructs: int
    max_players: dict[str, int] = field(default_factory=dict)


def run_fig01(settings: ExperimentSettings | None = None) -> HeadlineResult:
    """Reproduce Figure 1."""
    fig07a = run_fig07a(settings, construct_counts=(HEADLINE_CONSTRUCTS,))
    return HeadlineResult(
        constructs=HEADLINE_CONSTRUCTS,
        max_players={game: count for (game, _), count in fig07a.max_players.items()},
    )


def format_fig01(result: HeadlineResult) -> str:
    """Render the figure as a paper-vs-measured table."""
    rows = [
        [game, str(PAPER_VALUES[game]), str(result.max_players.get(game, 0))]
        for game in ("opencraft", "minecraft", "servo")
    ]
    return format_table(["game", "paper max players", "measured max players"], rows)
