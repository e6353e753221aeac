"""Swarm cost guard: a tick of walkers is one array step, not a loop of ``act`` calls.

Frame counts under ``sys.setprofile`` repeat exactly on any machine, so the
bound cannot flake.  The per-bot code this guards against entered 6 frames
under ``repro/workload/`` and built one ``BlockPos`` per bot per tick (901
and 150 for 150 bots); the array step enters a handful however many bots
there are — small swarms included, so nobody is handed a per-bot fallback.
"""

import sys

import pytest
from stub_host import StubHost

from repro.workload.behavior import BoundedAreaBehavior
from repro.workload.bots import BotSwarm
from repro.world.coords import BlockPos

MAX_WORKLOAD_FRAMES_PER_TICK = 20


@pytest.mark.parametrize("bots", [5, 12, 150])
def test_a_tick_of_walkers_enters_a_fixed_number_of_workload_frames(bots):
    host = StubHost(seed=3)
    driver = BotSwarm([BoundedAreaBehavior() for _ in range(bots)]).install(host)
    driver(host, 0)  # the first tick binds every bot to its row
    host.end_tick()

    counts = {"workload frames": 0, "BlockPos": 0}

    def on_event(frame, event, _argument):
        if event != "call":
            return
        code = frame.f_code
        if "repro/workload/" in code.co_filename.replace("\\", "/"):
            counts["workload frames"] += 1
        if frame.f_locals.get("_cls") is BlockPos:  # the named tuple's generated ``__new__``
            counts["BlockPos"] += 1

    sys.setprofile(on_event)
    try:
        driver(host, 1)
    finally:
        sys.setprofile(None)

    assert len(host.end_tick()) == bots  # every bot still sent its own message
    assert counts["workload frames"] <= MAX_WORKLOAD_FRAMES_PER_TICK, counts
    assert counts["BlockPos"] == 0, counts
