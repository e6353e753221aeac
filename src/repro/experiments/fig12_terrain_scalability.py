"""Figure 12: scalability of serverless terrain generation.

Figure 12a: players join every ten seconds and walk away from spawn at 3 (S3)
or 8 (S8) blocks per second; the supported player count is the number of
connected players when the rolling 95th-percentile tick duration first exceeds
the 50 ms budget.  Figure 12b repeats the randomised workload R several times
and reports the distribution of supported players per game.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.run import run_spec
from repro.api.spec import HostSpec, RunSpec, WorkloadSpec
from repro.experiments.harness import ExperimentSettings, format_table
from repro.workload.scenarios import TICK_BUDGET_MS

GAMES = ("opencraft", "servo")
SPEEDS = (3.0, 8.0)


def supported_players_from_series(
    times_ms: list[float],
    durations_ms: list[float],
    players_ms: list[float],
    players_values: list[float],
    window_ms: float = 2500.0,
    budget_ms: float = TICK_BUDGET_MS,
) -> int:
    """Players connected when the rolling p95 tick duration first exceeds the budget.

    Mirrors the paper's reading of Figure 12a: the 95th percentile curve
    (2.5-second windows) crossing the 50 ms line determines the supported
    player count.  If the budget is never exceeded, every connected player is
    supported.
    """
    if not times_ms:
        raise ValueError("empty tick-duration series")
    start = times_ms[0]
    end = times_ms[-1]
    t = start
    crossing_time = None
    index = 0
    while t <= end:
        window = [
            durations_ms[i]
            for i in range(index, len(times_ms))
            if t <= times_ms[i] < t + window_ms
        ]
        # advance index to keep the scan linear
        while index < len(times_ms) and times_ms[index] < t:
            index += 1
        if window:
            window.sort()
            p95 = window[int(0.95 * (len(window) - 1))]
            if p95 > budget_ms:
                crossing_time = t
                break
        t += window_ms
    if crossing_time is None:
        return int(max(players_values)) if players_values else 0
    connected = [
        value for time, value in zip(players_ms, players_values) if time <= crossing_time
    ]
    supported = int(connected[-1]) - 1 if connected else 0
    return max(0, supported)


@dataclass
class TerrainScalabilityRun:
    """One game's run for one workload."""

    game: str
    workload: str
    supported_players: int
    max_connected: int
    tick_series: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class Fig12aResult:
    runs: dict[tuple[str, str], TerrainScalabilityRun] = field(default_factory=dict)


def _run_terrain(
    game: str, workload: str, seed: int, scenario: WorkloadSpec
) -> TerrainScalabilityRun:
    """One default-terrain run without warm-up, read as a supported-player count."""
    result = run_spec(
        RunSpec(
            host=HostSpec(game=game, game_config={"world_type": "default"}),
            workload=scenario,
            seed=seed,
            warmup_s=0.0,
        )
    )
    records = result.host.tick_records
    times_ms = [record.start_ms for record in records]
    durations_ms = [record.duration_ms for record in records]
    players = [record.players for record in records]
    return TerrainScalabilityRun(
        game=game,
        workload=workload,
        supported_players=supported_players_from_series(times_ms, durations_ms, times_ms, players),
        max_connected=max(players, default=0),
        tick_series=list(zip(times_ms, durations_ms)),
    )


def run_fig12a(
    settings: ExperimentSettings | None = None,
    players: int = 40,
    join_interval_s: float = 10.0,
) -> Fig12aResult:
    """Reproduce Figure 12a."""
    settings = settings or ExperimentSettings()
    duration_s = players * join_interval_s + 30.0
    result = Fig12aResult()
    for game in GAMES:
        for speed in SPEEDS:
            scenario = WorkloadSpec(
                scenario="star",
                params={
                    "players": players,
                    "speed": speed,
                    "duration_s": duration_s,
                    "join_interval_s": join_interval_s,
                },
            )
            workload = f"S{speed:g}"
            result.runs[(game, workload)] = _run_terrain(game, workload, settings.seed, scenario)
    return result


def format_fig12a(result: Fig12aResult) -> str:
    rows = [
        [game, workload, str(run.supported_players), str(run.max_connected)]
        for (game, workload), run in sorted(result.runs.items())
    ]
    return format_table(["game", "workload", "supported players", "players offered"], rows)


@dataclass
class Fig12bResult:
    """Distribution of supported players for the R workload."""

    supported: dict[str, list[int]] = field(default_factory=dict)

    def median(self, game: str) -> float:
        values = sorted(self.supported[game])
        return float(values[len(values) // 2])


def run_fig12b(
    settings: ExperimentSettings | None = None,
    players: int = 40,
    join_interval_s: float = 10.0,
    duration_s: float | None = None,
) -> Fig12bResult:
    """Reproduce Figure 12b (randomised workload, repeated runs)."""
    settings = settings or ExperimentSettings()
    if duration_s is None:
        duration_s = players * join_interval_s + 30.0
    scenario = WorkloadSpec(
        scenario="custom",
        params={
            "name": f"R-{players}p",
            "players": players,
            "behavior_code": "R",
            "duration_s": duration_s,
            "join_interval_s": join_interval_s,
        },
    )
    result = Fig12bResult()
    for game in GAMES:
        result.supported[game] = [
            _run_terrain(game, "R", settings.seed + repetition * 101, scenario).supported_players
            for repetition in range(settings.repetitions)
        ]
    return result


def format_fig12b(result: Fig12bResult) -> str:
    rows = []
    for game, values in sorted(result.supported.items()):
        ordered = sorted(values)
        rows.append(
            [
                game,
                f"{min(ordered)}",
                f"{result.median(game):.0f}",
                f"{max(ordered)}",
                str(len(ordered)),
            ]
        )
    return format_table(["game", "min", "median", "max", "repetitions"], rows)
