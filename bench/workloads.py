"""The five workloads: what they run, their seeded inputs, and their checks.

A workload is a closed loop: the bot population is the client count and one
tick (or cluster round) is the unit of work.  The tick count is fixed per
workload, so two commits always do the same simulated work; only the host time
it takes differs.  Why each workload exists is recorded in ``BENCHMARK.json``
and at length in ``bench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from bench.spans import servers_of
from repro.api import build_host
from repro.constructs import (
    ReferenceConstructSimulator,
    SimulatedConstruct,
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_sized_construct,
    build_wire_line,
)
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.behavior import behavior_by_code
from repro.workload.bots import BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

#: ticks run (untimed) after the bots connect, before any window opens
WARMUP_TICKS = 100
PRELOAD_RADIUS_BLOCKS = 160.0
#: the census profiles at most this many ticks (cProfile slows them severalfold)
CENSUS_TICKS = 300
#: at most this many constructs are replayed with the reference simulator after
#: a run, within a budget of cell-steps (the reference costs ~4 us per cell-step)
REPLAY_CONSTRUCTS = 8
REPLAY_CELL_STEPS = 600_000


@dataclass(frozen=True)
class Workload:
    name: str
    host: str
    world_type: str
    bots: int
    behaviour: str
    interest_radius_chunks: Optional[int] = None
    shards: Optional[int] = None
    #: size of the seeded construct fleet (0 or a multiple of 48)
    constructs: int = 0
    #: ticks per second on the reference box; turns a window length into the
    #: fixed tick count, it is not a target
    reference_ticks_per_s: int = 100

    def ticks(self, window_seconds: float) -> int:
        """The fixed tick count of a window that long on the reference box."""
        return max(1, round(self.reference_ticks_per_s * window_seconds))


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("players_walk", "opencraft", "flat", bots=150, behaviour="A",
                 reference_ticks_per_s=600),
        Workload("construct_fleet", "opencraft", "flat", bots=5, behaviour="A",
                 constructs=96, reference_ticks_per_s=2400),
        Workload("interest_walk", "opencraft", "flat", bots=150, behaviour="A",
                 interest_radius_chunks=4, reference_ticks_per_s=250),
        Workload("terrain_star", "servo", "default", bots=12, behaviour="S8",
                 reference_ticks_per_s=100),
        Workload("cluster_mixed", "servo-cluster", "flat", bots=100, behaviour="A",
                 interest_radius_chunks=4, shards=4, constructs=48,
                 reference_ticks_per_s=250),
    )
}


# -- seeded construct fleet ------------------------------------------------------------

#: (share of a 96-circuit fleet, parameter options sorted by cell count, builder)
_FLEET_KINDS: tuple[tuple[int, list, Callable[..., SimulatedConstruct]], ...] = (
    (30, sorted(((w, d) for w in range(3, 11) for d in range(2, 7)),
                key=lambda wd: (wd[0] * wd[1], wd)),
     lambda option, origin: build_lamp_grid(option[0], option[1], origin)),
    (18, [(period, lamps) for lamps in range(2, 9) for period in (4, 6, 8, 10, 12, 16)],
     lambda option, origin: build_clock(option[0], origin, lamps=option[1])),
    # Powered wire lines settle to a fixed point: the quiescent part of the fleet.
    (24, list(range(6, 54)), build_wire_line),
    (10, list(range(2, 22)), build_counter_farm),
    (14, list(range(60, 256)), build_sized_construct),
)
_FLEET_COLUMNS = 16
_FLEET_SPACING_BLOCKS = 64


def build_fleet(seed: int, count: int) -> list[SimulatedConstruct]:
    """``count`` structurally distinct circuits whose parameters come from ``seed``.

    Each kind draws one parameter from each of as many contiguous strata of
    its cost-sorted options as it has circuits, so no option repeats (no two
    circuits are equal, and the backend cannot collapse them into one
    simulation) and the fleet's total cell count barely moves between seeds.
    Origins are a seeded permutation of a 16-column grid 64 blocks apart,
    which spreads a cluster's fleet over all four zones.
    """
    if count % 48:
        raise ValueError("fleet size must be a multiple of 48")
    rng = np.random.default_rng([seed, count])
    slots = rng.permutation(count).tolist()
    fleet: list[SimulatedConstruct] = []
    for share, options, builder in _FLEET_KINDS:
        for stratum in np.array_split(np.arange(len(options)), share * count // 96):
            option = options[int(rng.choice(stratum))]
            slot = slots[len(fleet)]
            origin = BlockPos(
                (slot % _FLEET_COLUMNS) * _FLEET_SPACING_BLOCKS,
                64,
                (slot // _FLEET_COLUMNS) * _FLEET_SPACING_BLOCKS,
            )
            fleet.append(builder(option, origin))
    return fleet


def _structure(construct: SimulatedConstruct) -> tuple:
    anchor = construct.anchor()
    return tuple(
        (cell.position.x - anchor.x, cell.position.y - anchor.y, cell.position.z - anchor.z,
         cell.component.value, tuple(sorted(cell.properties.items())))
        for cell in construct.cells
    )


# -- set-up ----------------------------------------------------------------------------


@dataclass
class Setup:
    """A built, populated and warmed-up host, ready for a window of ticks."""

    seed: int
    host: Any
    driver: Callable[[Any, int], None]
    fleet: list[SimulatedConstruct]

    @property
    def next_tick(self) -> int:
        return len(self.host.tick_records)


def set_up(workload: Workload, seed: int) -> Setup:
    """Build the host, preload around spawn, place the fleet, connect the bots, warm up."""
    engine = SimulationEngine(seed=seed)
    config = GameConfig(
        world_type=workload.world_type,
        interest_radius_chunks=workload.interest_radius_chunks,
    )
    host = build_host(
        workload.host, engine, config,
        shards=workload.shards, workers=1 if workload.shards else None,
    )
    host.chunks.preload_area(config.spawn_position, PRELOAD_RADIUS_BLOCKS)
    fleet = build_fleet(seed, workload.constructs) if workload.constructs else []
    for construct in fleet:
        host.place_construct(construct)
    swarm = BotSwarm(
        [behavior_by_code(workload.behaviour, direction_index=index)
         for index in range(workload.bots)],
        schedule=JoinSchedule.all_at_start(),
    )
    driver = swarm.install(host)
    for _ in range(WARMUP_TICKS):
        driver(host, len(host.tick_records))
        host.tick()
    return Setup(seed, host, driver, fleet)


# -- simulated results -----------------------------------------------------------------


def sim_metrics(setup: Setup, first_tick: int) -> dict[str, float]:
    """Simulated-QoS statistics of the ticks since ``first_tick`` (virtual time).

    The bounded "typical tick" statistic is the mean without the fastest and
    slowest 5 % of ticks: across seeds the median jumps between the modes of a
    bimodal tick distribution and the plain mean follows the rare 35 ms
    spikes, while the trimmed mean moves smoothly with any cost change.
    """
    durations = np.sort(
        [record.duration_ms for record in setup.host.tick_records[first_tick:]]
    )
    trimmed = int(durations.size * 0.05)
    budget_ms = setup.host.config.tick_interval_ms
    return {
        "sim_tick_ms_tmean": float(durations[trimmed : durations.size - trimmed].mean()),
        "sim_in_budget_frac": float(np.count_nonzero(durations <= budget_ms)) / durations.size,
        "sim.tick_ms_p50": float(np.percentile(durations, 50)),
        "sim.tick_ms_p95": float(np.percentile(durations, 95)),
    }


def sim_digest(setup: Setup, first_tick: int) -> str:
    """sha256 over everything simulated: a host-speed change must not move it.

    Covers the window's tick durations, every construct's final step and
    state, and the engine's metric counters.
    """
    hasher = hashlib.sha256()
    for record in setup.host.tick_records[first_tick:]:
        hasher.update(f"{record.duration_ms!r};".encode("ascii"))
    for construct in setup.fleet:
        hasher.update(f"{construct.step}:{construct.snapshot().digest()}|".encode("ascii"))
    metrics = setup.host.engine.metrics
    for name in metrics.counter_names:
        hasher.update(f"{name}={metrics.counter(name)!r},".encode("ascii"))
    return hasher.hexdigest()


# -- correctness checks ----------------------------------------------------------------


def verify(
    workload: Workload, setup: Setup, first_tick: int, ticks: int, replay_constructs: bool
) -> list[str]:
    """Every check the run fails, as one line each (empty when it is correct).

    ``workload`` states what is expected and ``setup`` holds what ran.
    ``replay_constructs`` adds the reference-simulator replay, which costs
    seconds and needs doing once per digest, not once per repeat.
    """
    host = setup.host
    failures: list[str] = []
    records = host.tick_records[first_tick:]
    if len(records) != ticks:
        failures.append(f"ran {len(records)} ticks, {ticks} requested")
    if host.player_count != workload.bots:
        failures.append(f"{host.player_count} players connected, {workload.bots} expected")
    if any(not (math.isfinite(r.duration_ms) and r.duration_ms >= 0.0) for r in records):
        failures.append("a tick duration is negative or not finite")
    if len({_structure(construct) for construct in setup.fleet}) != workload.constructs:
        failures.append("the construct fleet is not structurally distinct")

    servers = servers_of(host)
    for server in servers:
        if server.interest is not None and not server.interest.verify_index():
            failures.append(f"{server.name}: interest index differs from recomputation")
    giveups = host.engine.metrics.counter("faas_giveups")
    if giveups:
        failures.append(f"{giveups:g} FaaS invocations were given up")
    if workload.shards:
        for session in host.sessions.values():
            holders = [s.name for s in servers if session.player_id in s.sessions]
            if len(holders) != 1:
                failures.append(f"player {session.player_id} is on shards {holders}")

    if replay_constructs and setup.fleet:
        failures.extend(_replay_mismatches(setup))
    return failures


def _replay_mismatches(setup: Setup) -> list[str]:
    """Replay a seeded sample of the fleet from scratch with the executable spec.

    Constructs are taken in a seeded order while they fit the cell-step
    budget, so the check costs a couple of seconds whatever the run length.
    """
    fresh = build_fleet(setup.seed, len(setup.fleet))
    rng = np.random.default_rng([setup.seed, len(setup.fleet), 1])
    reference = ReferenceConstructSimulator()
    budget, replayed_count = REPLAY_CELL_STEPS, 0
    mismatches = []
    for index in rng.permutation(len(fresh)).tolist():
        ran, replayed = setup.fleet[index], fresh[index]
        cost = ran.block_count * ran.step
        if cost > budget:
            continue
        budget -= cost
        for _ in range(ran.step):
            reference.step(replayed)
        if replayed.snapshot().digest() != ran.snapshot().digest():
            mismatches.append(
                f"construct {ran.name} differs from the reference after {ran.step} steps"
            )
        replayed_count += 1
        if replayed_count == REPLAY_CONSTRUCTS:
            break
    return mismatches
