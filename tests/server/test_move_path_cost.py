"""Move-path cost guard: a tick's MOVEs are one pass, a crossing is found once and costs its delta.

Frame and line counts under ``sys.setprofile`` and ``sys.settrace`` repeat
exactly on any machine, so the bounds cannot flake.  A tick's MOVEs enter a
fixed set of frames, however many there are, and never ``_process_message``.
The chunk-view paths this guards against looked at every avatar's cached view
every tick to find the few that had changed chunk (150
``_refresh_player_view`` frames per tick for 150 players), built the whole
ring of a new centre chunk on a crossing (225 ``ChunkPos`` frames at the
default view distance), and probed every loaded chunk against a union of
keep rings in a Python loop on every eviction.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.net.message import Message, MessageKind
from repro.server import GameConfig, TickWork, make_opencraft
from repro.server.chunkmanager import (
    ChunkManager,
    LocalTerrainProvider,
    _ring_offsets,
    _ring_reach,
)
from repro.server.entities import ARRAY_PASS_MIN_MOVES, Avatar, AvatarTable
from repro.sim import SimulationEngine
from repro.storage.local import LocalDiskStorage
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos
from repro.world.terrain import FlatTerrainGenerator
from repro.world.world import VoxelWorld

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


def traced(action):
    """Run ``action``; returns each call and line event in ``repro`` code as (event, name, line)."""
    events = []

    def on_event(frame, event, argument):
        if "/repro/" not in frame.f_code.co_filename.replace("\\", "/"):
            return None
        if event in ("call", "line"):
            events.append((event, frame.f_code.co_name, frame.f_lineno))
        return on_event

    sys.settrace(on_event)
    try:
        action()
    finally:
        sys.settrace(None)
    return events


def make_manager():
    """A flat-world chunk manager (default view distance) and one avatar at the origin, bound to a table."""
    engine = SimulationEngine(seed=3)
    generator = FlatTerrainGenerator(seed=1)
    manager = ChunkManager(
        engine=engine,
        world=VoxelWorld(),
        generator=generator,
        provider=LocalTerrainProvider(engine, generator),
        storage=LocalDiskStorage(rng=engine.rng("disk")),
    )
    avatar = Avatar(player_id=1, name="p1", position=BlockPos(8, 65, 8))
    AvatarTable().bind(avatar)
    return manager, avatar


def test_an_eviction_runs_the_same_code_however_many_chunks_are_loaded():
    """37 or 421 kept chunks, and the same 9 far ones evicted: the same lines run.

    The path this guards against ran two lines per loaded chunk.
    """

    def eviction(kept_radius_blocks):
        manager, avatar = make_manager()
        kept = manager.preload_area(avatar.position, kept_radius_blocks)
        for _ in range(2):  # the second pass runs with any cache an eviction keeps filled
            manager.preload_area(BlockPos(8 + 40 * CHUNK_SIZE, 65, 8), 16.0)
            events = traced(lambda: manager._evict(avatar.table))
        return kept, manager.world.loaded_chunk_count, events

    few, left_few, events_few = eviction(48.0)
    many, left_many, events_many = eviction(176.0)
    assert (few, many) == (37, 421) and (left_few, left_many) == (few, many)
    assert events_few == events_many


@pytest.mark.parametrize("step", [(1, 0), (-1, 1), (0, -3)])
def test_a_crossing_builds_no_ring(step):
    """A view that moves to a centre it never had enters fewer frames than its ring has chunks.

    The path this guards against built the whole ring of the new centre, one
    ``ChunkPos`` frame per chunk (225 at the default view distance).
    """
    manager, avatar = make_manager()
    start = (7001, -7001)
    manager._refresh_player_view(avatar.player_id, start)
    target = (start[0] + step[0], start[1] + step[1])
    frames, _ = profiled(lambda: manager._refresh_player_view(avatar.player_id, target))
    assert 0 < len(frames) < len(_ring_offsets(manager._view_radius_chunks)) == 225


def test_the_integer_keep_test_is_the_ring():
    """For every keep radius R from 0 to 64, an eviction keeps exactly ``_ring_offsets(R)``.

    The loaded chunks are the square of side 2R + 3 around one avatar's
    chunk; each is a stand-in that is never dirty.
    """
    manager, avatar = make_manager()
    centre = (3, -5)
    avatar.position = BlockPos(centre[0] * CHUNK_SIZE, 65, centre[1] * CHUNK_SIZE)
    for radius in range(65):
        span = range(-radius - 1, radius + 2)
        for dx in span:
            for dz in span:
                position = ChunkPos(centre[0] + dx, centre[1] + dz)
                manager.world.add_chunk(SimpleNamespace(position=position, dirty=False))
        manager._keep_radius_chunks, manager._keep_reach = radius, _ring_reach(radius)
        manager._evict(avatar.table)
        kept = [(cx - centre[0], cz - centre[1]) for cx, cz in manager.world.loaded_chunk_positions]
        assert kept == list(_ring_offsets(radius)), radius


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
        return process(session, message)

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
