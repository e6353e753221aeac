"""Figure 10: QoS of serverless terrain generation under increasing load.

Five players walk away from spawn with a speed that increases over time
(behaviour Sinc).  The figure reports, over time, (a) the distance between a
player and the closest missing terrain — which should stay at the 128-block
view distance — and (b) the tick duration.  Opencraft's local generation falls
behind as the speed grows; Servo's serverless generation keeps up at the cost
of slightly higher tick durations (chunk loading overhead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentSettings, build_game_server, format_table
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload import Scenario
from repro.workload.behavior import IncreasingSpeedStarBehavior
from repro.workload.bots import BotSwarm, JoinSchedule

GAMES = ("opencraft", "servo")
PLAYERS = 5


@dataclass
class TerrainQosRun:
    """Time series collected from one game's Sinc run (``Fig10Result.runs`` files it by game)."""

    #: (time s, min distance to missing terrain in blocks)
    view_range: list[tuple[float, float]] = field(default_factory=list)
    #: (time s, tick duration ms)
    tick_durations: list[tuple[float, float]] = field(default_factory=list)

    def minimum_view_range(self) -> float:
        return min(value for _, value in self.view_range)

    def final_view_range(self, window_s: float = 30.0) -> float:
        """Mean view range over the last ``window_s`` seconds of the run."""
        if not self.view_range:
            raise ValueError("no view-range samples")
        end = max(t for t, _ in self.view_range)
        tail = [v for t, v in self.view_range if t >= end - window_s]
        return sum(tail) / len(tail)

    def tick_p95_after(self, start_s: float) -> float:
        values = [v for t, v in self.tick_durations if t >= start_s]
        if not values:
            raise ValueError(f"no tick samples after {start_s} s")
        values.sort()
        return values[int(0.95 * (len(values) - 1))]


@dataclass
class Fig10Result:
    runs: dict[str, TerrainQosRun] = field(default_factory=dict)
    players: int = 5
    duration_s: float = 0.0


def _run_game(
    game: str,
    settings: ExperimentSettings,
    duration_s: float,
    speed_increase_interval_s: float,
) -> TerrainQosRun:
    engine = SimulationEngine(seed=settings.seed)
    server = build_game_server(game, engine, GameConfig(world_type="default"))
    server.chunks.preload_area(server.config.spawn_position, 160.0)

    behaviors = [
        IncreasingSpeedStarBehavior(
            direction_index=index,
            direction_count=PLAYERS,
            speed_increase_interval_s=speed_increase_interval_s,
        )
        for index in range(PLAYERS)
    ]
    swarm = BotSwarm(behaviors, schedule=JoinSchedule.all_at_start())
    driver = swarm.install(server)
    start_ms = engine.now_ms
    server.run_for_seconds(duration_s, before_tick=driver)

    run = TerrainQosRun()
    for record in server.tick_records:
        time_s = (record.start_ms - start_ms) / 1000.0
        run.view_range.append((time_s, record.view_range_blocks))
        run.tick_durations.append((time_s, record.duration_ms))
    return run


def run_fig10(
    settings: ExperimentSettings | None = None,
    duration_s: float | None = None,
    speed_increase_interval_s: float | None = None,
) -> Fig10Result:
    """Reproduce Figure 10.

    At paper scale the run lasts 1000 s with the speed increasing every 200 s;
    scaled-down runs shrink both proportionally so the same speed range is
    covered.
    """
    settings = settings or ExperimentSettings()
    if duration_s is None:
        duration_s = max(settings.duration_s * 10.0, 120.0)
    if speed_increase_interval_s is None:
        speed_increase_interval_s = duration_s / 5.0
    result = Fig10Result(players=PLAYERS, duration_s=duration_s)
    for game in GAMES:
        result.runs[game] = _run_game(game, settings, duration_s, speed_increase_interval_s)
    return result


def format_fig10(result: Fig10Result) -> str:
    rows = []
    for game, run in sorted(result.runs.items()):
        rows.append(
            [
                game,
                f"{run.minimum_view_range():.0f}",
                f"{run.final_view_range():.0f}",
                f"{run.tick_p95_after(result.duration_s * 0.5):.1f}",
            ]
        )
    return format_table(
        ["game", "min view range (blocks)", "final view range (blocks)", "late-run p95 tick ms"],
        rows,
    )
