"""Metamorphic oracle: a Servo run does not depend on where in the world it happens.

On a flat world nothing is position-dependent by design, so the same seeded
run with ``spawn_position``, the preloaded area, the construct fleet and the
player edits all shifted together by whole chunks must give the same tick
durations, the same offload/speculation counters and the same per-construct
value vectors — wherever the shift puts it, including astride the origin and
deep into negative coordinates.  No reference implementation is involved.
"""

from __future__ import annotations

import pytest

from repro.api import build_host
from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_piston_door,
    build_sized_construct,
    build_wire_line,
)
from repro.core import ServoConfig
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.behavior import behavior_by_code
from repro.workload.bots import BotSwarm, JoinSchedule
from repro.world.coords import BlockPos

TICKS = 420
PLAYERS = 6
#: ticks at which a player edits the construct with that fleet index
EDITS = {30: 8, 150: 8, 200: 2, 260: 10, 300: 12, 301: 13}
COMPARED_COUNTER_PREFIXES = ("offload_", "speculation_", "loops_detected")


def fleet(dx: int, dz: int) -> list:
    """14 circuits on a 24-block grid whose first cell is at (8 + dx, 64, 8 + dz)."""
    origins = (BlockPos(8 + dx + (i % 4) * 24, 64, 8 + dz + (i // 4) * 24) for i in range(14))
    circuits = [build_lamp_grid(width, 3, next(origins)) for width in (4, 5)]
    circuits += [build_clock(period=period, origin=next(origins), lamps=3) for period in (4, 6)]
    circuits += [build_wire_line(length, next(origins), powered=True) for length in (5, 9)]
    circuits += [build_counter_farm(hoppers, next(origins)) for hoppers in (2, 3)]
    # Structurally identical pairs: the second of each is served from the memo.
    circuits += [build_sized_construct(60, next(origins), looping=False) for _ in range(2)]
    circuits += [build_sized_construct(45, next(origins), looping=True) for _ in range(2)]
    circuits += [build_piston_door(next(origins)) for _ in range(2)]
    return circuits


def run(dx: int, dz: int) -> dict:
    engine = SimulationEngine(seed=42)
    spawn = BlockPos(8 + dx, 65, 8 + dz)
    host = build_host(
        "servo",
        engine,
        GameConfig(world_type="flat", spawn_position=spawn),
        servo_config=ServoConfig(steps_per_invocation=40, tick_lead=15),
    )
    host.chunks.preload_area(spawn, 96.0)
    circuits = fleet(dx, dz)
    for construct in circuits:
        host.place_construct(construct)
    swarm = BotSwarm(
        [behavior_by_code("A", direction_index=i) for i in range(PLAYERS)],
        schedule=JoinSchedule.all_at_start(),
    )
    drive_bots = swarm.install(host)

    def before_tick(host, tick_index):
        drive_bots(host, tick_index)
        if tick_index in EDITS:
            construct = circuits[EDITS[tick_index]]
            position = construct.cells[0].position
            host.constructs.on_player_modify(construct.construct_id, position)
            construct.cells[0].state = 1 - min(construct.cells[0].state, 1)

    host.run_ticks(TICKS, before_tick=before_tick)
    metrics = engine.metrics
    return {
        "durations": [record.duration_ms for record in host.tick_records],
        "counters": {
            name: metrics.counter(name)
            for name in metrics.counter_names
            if name.startswith(COMPARED_COUNTER_PREFIXES)
        },
        "efficiency": metrics.histogram("speculation_efficiency").samples,
        "steps": [construct.step for construct in circuits],
        "values": [[cell.state for cell in construct.cells] for construct in circuits],
    }


@pytest.fixture(scope="module")
def base() -> dict:
    return run(0, 0)


def test_the_base_run_exercises_every_compared_counter(base):
    """The comparison below is not vacuous: merges, loops, edits and stale replies all happen."""
    counters = base["counters"]
    assert counters["offload_invocations"] > 14  # follow-ups, not only registrations
    assert counters["loops_detected"] > 0
    assert counters["speculation_invalidated"] == len(EDITS)
    assert counters["speculation_discarded"] > 0
    assert any(sample >= 0.999 for sample in base["efficiency"])
    assert any(sample < 0.999 for sample in base["efficiency"])
    assert base["steps"] == [TICKS] * 14


@pytest.mark.parametrize(
    "dx, dz",
    [
        (-16, -16),  # spawn chunk at the far side of the origin, fleet astride it
        (-48, 0),  # astride x = 0 only
        (0, -32),  # astride z = 0 only
        (-160, -320),  # entirely negative
        (160, 0),
        (16 * 1000, -16 * 777),  # far from the origin, mixed signs
    ],
)
def test_a_servo_run_is_invariant_under_whole_chunk_translation(base, dx, dz):
    shifted = run(dx, dz)
    assert shifted["durations"] == base["durations"]
    assert shifted["counters"] == base["counters"]
    assert shifted["efficiency"] == base["efficiency"]
    assert shifted["steps"] == base["steps"]
    assert shifted["values"] == base["values"]
