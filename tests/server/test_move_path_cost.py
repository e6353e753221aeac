"""Move-path cost guard: a crossing is found where the avatar moves, once.

Frame and C-call counts under ``sys.setprofile`` repeat exactly on any
machine, so the bounds cannot flake.  The path this guards against looked at
every avatar's cached view every tick to find the few that had changed chunk
(150 ``_refresh_player_view`` frames per tick for 150 players), and unioned
one keep ring per *avatar* on every eviction (150 unions of 489 chunks for a
crowd standing in one chunk).
"""

import sys

import pytest

from repro.net.message import Message, MessageKind
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.world.coords import CHUNK_SIZE, BlockPos

PLAYERS = 150


def profiled(action):
    """Run ``action``; returns each Python frame's code and each C call's (caller code, callee)."""
    frames, c_calls = [], []

    def on_event(frame, event, argument):
        if event == "call":
            frames.append(frame.f_code)
        elif event == "c_call":
            c_calls.append((frame.f_code, argument))

    sys.setprofile(on_event)
    try:
        action()
    finally:
        sys.setprofile(None)
    return frames, c_calls


def make_server(interest_radius=None, spawns=(None,)):
    """A flat server, ``PLAYERS`` players round-robin over ``spawns``, one tick past first sight."""
    config = GameConfig(world_type="flat", interest_radius_chunks=interest_radius)
    server = make_opencraft(SimulationEngine(seed=3), config)
    server.chunks.preload_area(config.spawn_position, 96.0)
    sessions = [
        server.connect_player(f"bot-{index}", position=spawns[index % len(spawns)])
        for index in range(PLAYERS)
    ]
    server.tick()
    return server, sessions


def test_a_tick_in_which_nobody_crosses_refreshes_no_view():
    server, sessions = make_server()
    for session in sessions:  # a step inside the chunk, for everyone
        here = session.avatar.position
        session.move(here.x + 1, here.y, here.z)
    frames, _ = profiled(server.tick)
    names = [code.co_name for code in frames]
    assert names.count("_process_message") == PLAYERS
    assert names.count("_refresh_player_view") == 0

    sessions[7].move(sessions[7].avatar.position.x + CHUNK_SIZE, 65, 8)
    frames, _ = profiled(server.tick)
    assert [code.co_name for code in frames].count("_refresh_player_view") == 1


@pytest.mark.parametrize("centres", [1, 5])
def test_an_eviction_unions_one_keep_ring_per_distinct_centre(centres):
    spawns = [BlockPos(8 + 3 * CHUNK_SIZE * index, 65, 8) for index in range(centres)]
    server, _ = make_server(spawns=spawns)
    server.chunks.eviction_interval_ticks = 1
    _, c_calls = profiled(server.tick)
    unions = [
        callee for code, callee in c_calls
        if code.co_name == "_evict" and callee.__name__ == "update"
    ]
    assert len(unions) == centres


def test_a_move_enters_the_same_server_frames_with_interest_on_and_off():
    """Counted across every ``repro`` package, so a hook moved behind the
    broadcast policy (into ``repro/interest`` or anywhere else) still shows."""

    def frames_of_one_move(interest_radius):
        server, sessions = make_server(interest_radius)
        mover = sessions[0]
        message = Message(MessageKind.MOVE, mover.player_id, {"x": 9, "y": 65, "z": 8})
        frames, _ = profiled(lambda: server._process_message(mover, message))
        return [
            (code.co_name, code.co_filename.replace("\\", "/").rsplit("/repro/", 1)[-1])
            for code in frames
            if "/repro/" in code.co_filename.replace("\\", "/")
        ]

    # Full fan-out: the move itself plus one call to the policy's no-op hook.
    assert frames_of_one_move(None) == [
        ("_process_message", "server/gameloop.py"),
        ("note_dirty", "server/broadcast.py"),
    ]
    # Interest management: the same move, routed to the mover's subscribers.
    assert frames_of_one_move(4) == [
        ("_process_message", "server/gameloop.py"),
        ("note_dirty", "interest/subscriptions.py"),
        ("_route", "interest/subscriptions.py"),
    ]
