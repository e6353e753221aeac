"""Named experiment scenarios (Table I).

A :class:`Scenario` bundles a workload: how many players, what they do, how
many constructs exist and how long the experiment runs.  The world they play
in is the host's (``GameConfig.world_type``).  ``Scenario.run`` drives any
game server (baseline or Servo) and returns a :class:`ScenarioResult` with the
tick-duration statistics the paper's figures are built from.

The paper's workload families are registered with the
:mod:`repro.api.scenarios` registry (``behaviour_a``, ``star``, ``sinc``,
``random``, plus the pass-through ``custom``), so run specs and the CLI can
instantiate them by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api.scenarios import register_scenario
from repro.faults import FaultPlan, install_faults
from repro.server.config import TICK_INTERVAL_MS
from repro.sim.metrics import BoxplotStats, boxplot_stats, fraction_exceeding
from repro.workload.behavior import Behavior, ConvergeBehavior, behavior_by_code
from repro.workload.bots import BotSwarm, GameHost, JoinSchedule
from repro.workload.constructs import place_standard_constructs

#: the paper's QoS threshold: a tick must finish within its 50 ms interval
TICK_BUDGET_MS = TICK_INTERVAL_MS


@dataclass
class ScenarioResult:
    """Measurements collected from one scenario run."""

    scenario_name: str
    server_name: str
    players: int
    constructs: int
    duration_s: float
    tick_durations_ms: list[float] = field(default_factory=list)

    def tick_stats(self) -> BoxplotStats:
        return boxplot_stats(self.tick_durations_ms)

    def fraction_over_budget(self, budget_ms: float = TICK_BUDGET_MS) -> float:
        return fraction_exceeding(self.tick_durations_ms, budget_ms)

    def meets_qos(self, budget_ms: float = TICK_BUDGET_MS, tolerance: float = 0.05) -> bool:
        """The paper's criterion: fewer than 5 % of ticks exceed the budget."""
        return self.fraction_over_budget(budget_ms) < tolerance


@dataclass
class Scenario:
    """A runnable workload description."""

    name: str
    players: int
    behavior_code: str = "A"
    constructs: int = 0
    duration_s: float = 30.0
    join_interval_s: Optional[float] = None
    #: radius around spawn to pre-generate before the run (blocks)
    preload_radius_blocks: float = 160.0
    #: virtual seconds to run before measurements start (lets cold starts drain)
    warmup_s: float = 5.0
    #: fault-plan dict (see :mod:`repro.faults.plan`) installed on the host at
    #: the start of the run; None or {} runs fault-free
    faults: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.players < 0:
            raise ValueError("players must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        behavior_by_code(self.behavior_code)  # validate eagerly
        if self.faults is not None:
            FaultPlan.from_dict(self.faults)  # validate eagerly

    # -- execution -------------------------------------------------------------------------

    def build_swarm(self) -> BotSwarm:
        behaviors: list[Behavior] = [
            behavior_by_code(self.behavior_code, direction_index=index)
            for index in range(self.players)
        ]
        schedule = (
            JoinSchedule.staggered(self.join_interval_s)
            if self.join_interval_s is not None
            else JoinSchedule.all_at_start()
        )
        return BotSwarm(behaviors, schedule=schedule)

    def run(self, server: GameHost) -> ScenarioResult:
        """Drive a game host (server or cluster) and collect measurements.

        The scenario plays in the host's world: it preloads the spawn area
        (every zone's spawn points, for a cluster), places the construct
        workload, connects the bots, runs a short warm-up, then measures for
        ``duration_s`` virtual seconds.  For a cluster the recorded tick
        durations are the lockstep *round* durations — the slowest shard of
        each round.

        A non-empty ``faults`` plan is installed on the host before anything
        else happens, so injected faults cover the whole run (fault times in
        the plan are absolute virtual times from engine start).
        """
        if self.faults:
            install_faults(server, FaultPlan.from_dict(self.faults))
        server.chunks.preload_area(server.config.spawn_position, self.preload_radius_blocks)
        place_standard_constructs(server, self.constructs)
        swarm = self.build_swarm()
        for bot in swarm.bots:
            # Converging bots all head for the host's global spawn, so a
            # cluster population (spread across zone spawns) forms one crowd.
            if isinstance(bot.behavior, ConvergeBehavior) and bot.behavior.target is None:
                bot.behavior.target = server.config.spawn_position
        driver = swarm.install(server)

        if self.warmup_s > 0:
            server.run_for_seconds(self.warmup_s, before_tick=driver)
        measured_from = len(server.tick_records)

        server.run_for_seconds(self.duration_s, before_tick=driver)

        records = server.tick_records[measured_from:]
        return ScenarioResult(
            scenario_name=self.name,
            server_name=server.name,
            players=self.players,
            constructs=self.constructs,
            duration_s=self.duration_s,
            tick_durations_ms=[record.duration_ms for record in records],
        )


# -- registered workload families (Table I) ------------------------------------------------


@register_scenario("behaviour_a")
def behaviour_a(players: int, constructs: int = 0, duration_s: float = 30.0) -> Scenario:
    """The construct-scalability workload (Figures 1 and 7)."""
    return Scenario(
        name=f"A-{players}p-{constructs}sc",
        players=players,
        behavior_code="A",
        constructs=constructs,
        duration_s=duration_s,
    )


@register_scenario("star")
def star(players: int, speed: float, duration_s: float = 120.0,
         join_interval_s: Optional[float] = 10.0) -> Scenario:
    """The terrain-scalability workloads S3/S8 (Figure 12a)."""
    return Scenario(
        name=f"S{speed:g}-{players}p",
        players=players,
        behavior_code=f"S{speed:g}",
        duration_s=duration_s,
        join_interval_s=join_interval_s,
    )


@register_scenario("sinc")
def sinc(players: int = 5, duration_s: float = 1000.0) -> Scenario:
    """The terrain-QoS workload (Figure 10)."""
    return Scenario(
        name=f"Sinc-{players}p",
        players=players,
        behavior_code="Sinc",
        duration_s=duration_s,
    )


@register_scenario("random")
def random_walk(players: int, duration_s: float = 120.0) -> Scenario:
    """The randomised behaviour workload R (Figure 12b)."""
    return Scenario(
        name=f"R-{players}p",
        players=players,
        behavior_code="R",
        duration_s=duration_s,
    )


@register_scenario("custom")
def custom(name: str, players: int, behavior_code: str = "A",
           constructs: int = 0, duration_s: float = 30.0,
           join_interval_s: Optional[float] = None,
           preload_radius_blocks: float = 160.0, warmup_s: float = 5.0,
           faults: Optional[dict] = None) -> Scenario:
    """A fully explicit scenario: every :class:`Scenario` field as a parameter."""
    return Scenario(
        name=name,
        players=players,
        behavior_code=behavior_code,
        constructs=constructs,
        duration_s=duration_s,
        join_interval_s=join_interval_s,
        preload_radius_blocks=preload_radius_blocks,
        warmup_s=warmup_s,
        faults=faults,
    )


# -- chaos scenarios (fault injection) -----------------------------------------------------


@register_scenario("offload_brownout")
def offload_brownout(players: int = 20, constructs: int = 30, duration_s: float = 20.0,
                     failure_rate: float = 0.15, throttle_rate: float = 0.05,
                     timeout_rate: float = 0.05, max_attempts: int = 3) -> Scenario:
    """A FaaS brownout under the construct workload.

    A sizable fraction of offload invocations fail, throttle or time out; the
    retry/backoff policy and the local-fallback simulation path must keep the
    game playable (Servo's design claim under a misbehaving substrate).
    """
    return Scenario(
        name=f"offload-brownout-{players}p-{constructs}sc",
        players=players,
        behavior_code="A",
        constructs=constructs,
        duration_s=duration_s,
        faults={
            "faas": {
                "failure_rate": failure_rate,
                "throttle_rate": throttle_rate,
                "timeout_rate": timeout_rate,
                "retry": {
                    "max_attempts": max_attempts,
                    "backoff_base_ms": 40.0,
                    "backoff_multiplier": 2.0,
                },
            },
        },
    )


@register_scenario("shard_kill_at_peak")
def shard_kill_at_peak(players: int = 40, constructs: int = 12, duration_s: float = 25.0,
                       kill_at_s: float = 12.0, respawn_after_s: float = 3.0,
                       shard: int = 1) -> Scenario:
    """Kill one cluster shard at peak load, then recover it.

    Requires a cluster host.  The kill fires at ``kill_at_s`` virtual seconds
    from engine start (the default lands mid-measurement, after the 5 s
    warm-up); the zone respawns ``respawn_after_s`` later and every stranded
    session is evacuated into the replacement through the snapshot/restore
    migration protocol.
    """
    return Scenario(
        name=f"shard-kill-{players}p-s{shard}",
        players=players,
        behavior_code="A",
        constructs=constructs,
        duration_s=duration_s,
        faults={
            "shards": [
                {
                    "at_ms": kill_at_s * 1000.0,
                    "shard": shard,
                    "respawn_after_ms": respawn_after_s * 1000.0,
                },
            ],
        },
    )


@register_scenario("flaky_network")
def flaky_network(players: int = 30, duration_s: float = 20.0,
                  drop_rate: float = 0.05, duplicate_rate: float = 0.05,
                  delay_rate: float = 0.10) -> Scenario:
    """A lossy client network: messages drop, duplicate and arrive late.

    Idempotent update application (sequence-stamped deliveries, per-player
    dedupe) must keep the world state consistent — a duplicated move or
    block edit is applied exactly once.
    """
    return Scenario(
        name=f"flaky-network-{players}p",
        players=players,
        behavior_code="A",
        duration_s=duration_s,
        faults={
            "net": {
                "drop_rate": drop_rate,
                "duplicate_rate": duplicate_rate,
                "delay_rate": delay_rate,
                "delay_ms_min": 50.0,
                "delay_ms_max": 400.0,
            },
        },
    )


@register_scenario("flash_crowd_at_spawn")
def flash_crowd_at_spawn(players: int = 40, constructs: int = 0,
                         duration_s: float = 20.0) -> Scenario:
    """A flash crowd: the whole population converges on one zone.

    Every player walks straight to the world spawn and mills around it, so
    within a few virtual seconds all subscriptions, edits and broadcast
    traffic concentrate in a handful of chunks.  On a cluster one shard
    absorbs the entire population (its neighbours idle); with interest
    management on, delta batching must absorb the hotspot — one encoded entry
    serves the whole crowd — while the dyconit staleness bounds keep holding.
    """
    return Scenario(
        name=f"flash-crowd-{players}p",
        players=players,
        behavior_code="C",
        constructs=constructs,
        duration_s=duration_s,
    )


#: the experiment overview of Table I, keyed by the paper's section
TABLE_I_SCENARIOS: dict[str, Scenario] = {
    "IV-B": behaviour_a(players=100, constructs=100, duration_s=60.0),
    "IV-C": Scenario(
        name="latency-hiding", players=1, behavior_code="A",
        constructs=50, duration_s=60.0,
    ),
    "IV-D": sinc(players=5, duration_s=300.0),
    "IV-E": star(players=30, speed=3, duration_s=120.0),
    "IV-F": star(players=8, speed=3, duration_s=120.0, join_interval_s=None),
    "IV-G": Scenario(
        name="construct-performance", players=1, behavior_code="A",
        constructs=1, duration_s=30.0,
    ),
}
