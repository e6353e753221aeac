"""Routing cost guard: a crowd on one chunk must not cost O(players²) calls.

Every bot moves every tick inside the same chunk, so each tick routes one
near-tier event per player to a chunk all players subscribe to — the
flash-crowd case.  Function-call counts under ``cProfile`` repeat exactly on
any machine, so the bound cannot flake; the per-event subscriber walk this
guards against added about 250 calls per player per tick at this size, the
batched routing adds 9.4.
"""

import cProfile

from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.world.coords import CHUNK_SIZE

BOTS = 60
TICKS = 20
WARM_UP_TICKS = 2


def _calls_for(interest_radius_chunks):
    config = GameConfig(world_type="flat", interest_radius_chunks=interest_radius_chunks)
    server = make_opencraft(SimulationEngine(seed=3), config)
    server.chunks.preload_area(config.spawn_position, 96.0)
    sessions = [server.connect_player(f"bot-{index}") for index in range(BOTS)]
    spawn = config.spawn_position
    west_edge = spawn.x - spawn.x % CHUNK_SIZE
    profiler = cProfile.Profile()
    for tick in range(WARM_UP_TICKS + TICKS):
        if tick == WARM_UP_TICKS:  # first sight builds every player's chunk view
            profiler.enable()
        for session in sessions:
            session.move(west_edge + 4 + tick % 2, spawn.y, spawn.z)
        server.tick()
    profiler.disable()
    if server.interest is not None:
        assert server.interest.last_flush.near_flushes == BOTS
    return sum(entry.callcount for entry in profiler.getstats())


def test_interest_routing_adds_at_most_ten_calls_per_player_per_tick():
    """A difference, not a ratio: both modes share the per-player MOVE path, so
    making that path cheaper must not read as routing getting dearer — and
    making it cheaper for full fan-out only must read as exactly that."""
    fanout = _calls_for(None)
    interest = _calls_for(4)
    assert interest - fanout <= 10 * BOTS * TICKS, (interest, fanout)
