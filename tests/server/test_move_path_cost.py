"""Move-path cost guard: a tick's MOVEs are one pass, and a crossing is found once.

Frame and C-call counts under ``sys.setprofile`` repeat exactly on any
machine, so the bounds cannot flake.  A tick's MOVEs enter a fixed set of
frames, however many there are, and never ``_process_message``.  The
chunk-view path this guards against looked at
every avatar's cached view every tick to find the few that had changed chunk
(150 ``_refresh_player_view`` frames per tick for 150 players), and unioned
one keep ring per *avatar* on every eviction (150 unions of 489 chunks for a
crowd standing in one chunk).
"""

import sys

import pytest

from repro.net.message import Message, MessageKind
from repro.server import GameConfig, TickWork, make_opencraft
from repro.server.entities import ARRAY_PASS_MIN_MOVES
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


def make_server(interest_radius=None, spawns=(None,), players=PLAYERS):
    """A flat server, ``players`` players round-robin over ``spawns``, one tick past first sight."""
    config = GameConfig(world_type="flat", interest_radius_chunks=interest_radius)
    server = make_opencraft(SimulationEngine(seed=3), config)
    server.chunks.preload_area(config.spawn_position, 96.0)
    sessions = [
        server.connect_player(f"bot-{index}", position=spawns[index % len(spawns)])
        for index in range(players)
    ]
    server.tick()
    return server, sessions


def repro_frames(frames):
    """(name, file under ``repro/``) of each frame that runs ``repro`` code."""
    return [
        (code.co_name, code.co_filename.replace("\\", "/").rsplit("/repro/", 1)[-1])
        for code in frames
        if "/repro/" in code.co_filename.replace("\\", "/")
    ]


def test_a_tick_in_which_nobody_crosses_refreshes_no_view():
    server, sessions = make_server()
    for session in sessions:  # a step inside the chunk, for everyone
        here = session.avatar.position
        session.move(here.x + 1, here.y, here.z)
    frames, _ = profiled(server.tick)
    assert [code.co_name for code in frames].count("_refresh_player_view") == 0

    sessions[7].move(sessions[7].avatar.position.x + CHUNK_SIZE, 65, 8)
    frames, _ = profiled(server.tick)
    assert [code.co_name for code in frames].count("_refresh_player_view") == 1


@pytest.mark.parametrize(
    "fewer, more, everyone",
    [(1, ARRAY_PASS_MIN_MOVES - 1, False), (ARRAY_PASS_MIN_MOVES, PLAYERS, True)],
    ids=["scalar", "array"],
)
def test_the_frames_a_drain_enters_for_its_moves_do_not_grow_with_the_movers(
    fewer, more, everyone
):
    """On either side of the crossover, draining ``fewer`` or ``more`` MOVEs enters the same frames.

    On the array side every player of a ``fewer``- and a ``more``-player
    server moves (150 of 150 is the bench's tick).  The path this guards
    against entered one ``_process_message`` frame and one ``note_dirty``
    frame per MOVE: 150 of each for 150 players.
    """

    def frames_of_a_drain(movers):
        server, sessions = make_server(players=movers if everyone else PLAYERS)
        for session in sessions[:movers]:  # a step inside the chunk
            here = session.avatar.position
            session.move(here.x + 1, here.y, here.z)
        frames, _ = profiled(lambda: server._drain_messages(TickWork()))
        return repro_frames(frames)

    assert frames_of_a_drain(fewer) == frames_of_a_drain(more)


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


def test_a_move_is_routed_only_by_an_interest_map():
    """Counted across every ``repro`` package, so a hook moved behind the
    broadcast policy (into ``repro/interest`` or anywhere else) still shows."""

    def routing_frames_of_one_move(interest_radius):
        server, sessions = make_server(interest_radius)
        sessions[0].move(9, 65, 8)
        frames, _ = profiled(server.tick)
        return [
            frame for frame in repro_frames(frames) if frame[0] in ("note_dirty", "_route")
        ]

    # Full fan-out routes nothing, so a MOVE calls no hook of the policy.
    assert routing_frames_of_one_move(None) == []
    # Interest management: the move is routed to the mover's subscribers.
    assert routing_frames_of_one_move(4) == [
        ("note_dirty", "interest/subscriptions.py"),
        ("_route", "interest/subscriptions.py"),
    ]


@pytest.mark.parametrize("interest_radius", [None, 4])
def test_process_message_never_receives_a_move(interest_radius):
    server, sessions = make_server(interest_radius)
    kinds = []
    process = server._process_message

    def recorded(session, message):
        kinds.append(message.kind)
        process(session, message)

    server._process_message = recorded
    starts = [session.avatar.position for session in sessions[:3]]
    for session, here in zip(sessions, starts):
        session.move(here.x + 1, here.y, here.z)
        session.enqueue(Message(MessageKind.PLACE_BLOCK, session.player_id, here._asdict()))
        session.chat("hi")
        session.move(here.x + CHUNK_SIZE, here.y, here.z)
        session.enqueue(Message(MessageKind.IDLE, session.player_id, {}))
    server.tick()
    assert kinds == [MessageKind.PLACE_BLOCK, MessageKind.CHAT, MessageKind.IDLE] * 3
    assert [session.avatar.position for session in sessions[:3]] == [
        here.offset(dx=CHUNK_SIZE) for here in starts
    ]
