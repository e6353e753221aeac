"""Generated differential: the MOVE pass against the message-by-message drain it replaced.

Each case is a list of ticks.  Before a tick, players join (a used name
reconnects with its stored state) and leave; in the tick, players send a
generated handful of MOVEs, PLACEs, BREAKs, CHATs and IDLEs, several MOVEs
from one player included.  A MOVE steps by 0, by ±1, across a chunk edge, over
the x = 0 line into negative coordinates, by 2**26 blocks and more, to a
float position that ``int()`` truncates, or between the far ends of the
64-bit columns.

The case runs on two identical hosts; one drains with
:func:`reference_drain.reference_drain`.  After every tick the two agree bit
for bit: every avatar's position and distance travelled, the avatars handed to
the chunk manager as moved (in order), every ``note_dirty`` call's arguments
(in order), the server statistics and the tick records.  The hosts are one
server under full fan-out, one under interest management, and a 2-shard
cluster whose players also walk over the zone edge (migrations).  Each runs
with the crossover patched to 1 (every run of MOVEs is an array pass) and to
a length no run reaches (every run is the scalar loop).

Malformed messages ride along in those ticks: a MOVE, PLACE or BREAK with a
missing key, text, None, NaN, infinity, a coordinate past 64 bits or a
height outside the world.  Both drains drop and count them and go on.  A
separate case sends nothing but generated, often malformed, MOVEs, PLACEs,
BREAKs and TOGGLEs from several players, and checks the tick against
the reference run on avatars that keep Python-int positions: a MOVE the
reference rejects or takes past the 64-bit columns is dropped with its
avatar as it stood, every other one is applied, and ``messages_rejected``
counts the dropped ones.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_opencraft_cluster
from repro.net.message import Message, MessageKind
from repro.server import GameConfig, entities, make_opencraft
from repro.server.entities import MALFORMED, Avatar
from repro.sim import SimulationEngine
from repro.world.coords import CHUNK_SIZE, BlockPos

from hypothesis_profiles import examples
from reference_drain import reference_move, use_reference_drain

SLOTS = 4
#: the slots connected before the first tick
FIRST = 3
Y = 65

slots = st.integers(min_value=0, max_value=SLOTS - 1)
steps = st.one_of(
    st.sampled_from([0, 1, -1, CHUNK_SIZE - 1, CHUNK_SIZE, -CHUNK_SIZE, 2**26, -(2**26) - 9]),
    st.integers(min_value=-40, max_value=40),
)
offsets = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
#: far ends of the 64-bit columns: a jump between them overflows an int64 difference
FAR = (2**62 + 2**61, -(2**62))
sends = st.one_of(
    st.tuples(st.just("move"), slots, steps, st.integers(-2, 2), steps),
    st.tuples(st.just("far"), slots, st.sampled_from(FAR)),
    st.tuples(st.just("float"), slots, offsets, offsets),
    st.tuples(st.just("edge"), slots, st.booleans()),
    st.tuples(st.sampled_from(["place", "break", "chat", "idle"]), slots),
    st.tuples(
        st.just("bad"),
        slots,
        st.sampled_from([MessageKind.MOVE, MessageKind.PLACE_BLOCK, MessageKind.BREAK_BLOCK]),
        st.sampled_from(["x", "y", "z"]),
        st.sampled_from([None, "text", float("nan"), float("inf"), 2**63, -(2**63) - 1]),
    ),
)
between = st.lists(st.tuples(st.sampled_from(["join", "leave"]), slots), max_size=3)
cases = st.lists(
    st.tuples(between, st.lists(sends, max_size=12)), min_size=1, max_size=8
)

#: the crossover values that force each side: every run is an array pass, or none is
SIDES = {"array": 1, "scalar": 10**9}


@contextmanager
def crossover(side: str):
    saved = entities.ARRAY_PASS_MIN_MOVES
    entities.ARRAY_PASS_MIN_MOVES = SIDES[side]
    try:
        yield
    finally:
        entities.ARRAY_PASS_MIN_MOVES = saved


class Side:
    """One host of the pair, its servers, its sessions by slot and its call log."""

    def __init__(self, shape: str, reference: bool) -> None:
        config = GameConfig(
            world_type="flat",
            view_distance_blocks=40.0,
            interest_radius_chunks=None if shape == "fanout" else 2,
        )
        engine = SimulationEngine(seed=5)
        if shape == "cluster":
            self.host = build_opencraft_cluster(engine, config, shards=2)
            self.servers = self.host.shards
            self.edge_x = self.host.partitioner.region(1).min_cx * CHUNK_SIZE
        else:
            self.host = make_opencraft(engine, config)
            self.servers = [self.host]
            self.edge_x = 0
        self.host.chunks.preload_area(config.spawn_position, 48.0)
        self.connected: dict[int, object] = {}
        self.every_session: list = []
        self.log: list = []
        for server in self.servers:
            if reference:
                use_reference_drain(server)
            server.chunks.update = partial(self._update, server.name, server.chunks.update)
            server.broadcast.note_dirty = partial(
                self._note_dirty, server.name, server.broadcast.note_dirty
            )

    def _update(self, name, update, avatars, moved):
        self.log.append((name, "moved", [avatar.player_id for avatar in moved]))
        return update(avatars, moved)

    def _note_dirty(self, name, note_dirty, *args, **kwargs):
        self.log.append((name, "note_dirty", repr(args), repr(sorted(kwargs.items()))))
        return note_dirty(*args, **kwargs)

    def join(self, slot: int) -> None:
        if slot not in self.connected:
            session = self.host.connect_player(f"walker-{slot}")
            self.connected[slot] = session
            self.every_session.append(session)

    def leave(self, slot: int) -> None:
        session = self.connected.pop(slot, None)
        if session is not None:
            self.host.disconnect_player(session.player_id)

    def send(self, slot: int, kind: MessageKind, payload: dict) -> None:
        session = self.connected[slot]
        session.enqueue(Message(kind, session.player_id, payload))

    def state(self) -> tuple:
        return (
            [
                (
                    session.player_id,
                    session.avatar.position,
                    session.avatar.distance_travelled.hex(),
                    session.disconnected,
                    session.avatar.table is None,
                )
                for session in self.every_session
            ],
            [
                (server.name, dataclasses.astuple(server.stats), list(server.sessions))
                for server in self.servers
            ],
            self.host.tick_records,
            getattr(self.host, "migration_records", None),
            getattr(self.host, "home", None),
        )


def payload_of(send, here, edge_x: int) -> tuple[MessageKind, dict]:
    """The message a generated send makes, for an avatar standing ``here``."""
    kind = send[0]
    if kind == "move":
        _, _, dx, dy, dz = send
        return MessageKind.MOVE, {"x": here.x + dx, "y": here.y + dy, "z": here.z + dz}
    if kind == "float":
        _, _, dx, dz = send
        return MessageKind.MOVE, {"x": here.x + dx, "y": float(Y), "z": here.z + dz}
    if kind == "far":
        return MessageKind.MOVE, {"x": send[2], "y": Y, "z": here.z}
    if kind == "edge":  # a step over the edge (eastward), or back over it
        return MessageKind.MOVE, {"x": edge_x + (2 if send[2] else -3), "y": Y, "z": here.z}
    if kind in ("place", "break"):
        block = {"x": here.x, "y": 66 if kind == "place" else 64, "z": here.z, "block": 1}
        return (MessageKind.PLACE_BLOCK if kind == "place" else MessageKind.BREAK_BLOCK), block
    if kind == "bad":  # one malformed coordinate, or a missing one (None)
        _, _, message_kind, axis, value = send
        payload = {"x": here.x + 1, "y": here.y, "z": here.z, axis: value}
        if value is None:
            del payload[axis]
        return message_kind, payload
    if kind == "chat":
        return MessageKind.CHAT, {"text": "hi"}
    return MessageKind.IDLE, {}


def run_pair(shape: str, side: str, case) -> None:
    with crossover(side):
        production, reference = Side(shape, reference=False), Side(shape, reference=True)
        pair = (production, reference)
        for slot in range(FIRST):
            for host in pair:
                host.join(slot)
        for between_ticks, tick_sends in case:
            for event, slot in between_ticks:
                for host in pair:
                    getattr(host, event)(slot)
            for send in tick_sends:
                slot = send[1]
                if slot not in production.connected:
                    continue
                here = production.connected[slot].avatar.position
                kind, payload = payload_of(send, here, production.edge_x)
                for host in pair:
                    host.send(slot, kind, dict(payload))
            for host in pair:
                host.host.tick()
            assert production.log == reference.log
            assert production.state() == reference.state()


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("shape", ["fanout", "interest"])
@settings(max_examples=examples(25))
@given(case=cases)
def test_one_server_drains_exactly_as_the_reference(shape, side, case):
    run_pair(shape, side, case)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=examples(15))
@given(case=cases)
def test_a_two_shard_cluster_drains_exactly_as_the_reference(side, case):
    run_pair("cluster", side, case)


MISSING = object()
values = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.sampled_from(
        [MISSING, None, "text", "7", 3.5, float("nan"), float("inf"), 2**63, -(2**63) - 1]
    ),
)
INT64 = range(-(2**63), 2**63)


def expected_moves(stand_ins: dict, sent: list) -> int:
    """Apply ``sent`` MOVEs to ``stand_ins`` as the message-by-message drain did; count the drops.

    The stand-ins are unbound avatars: they keep Python-int positions, as
    every avatar did before the columns.  A MOVE the reference rejects, or
    takes to a coordinate past 64 bits, is dropped and the stand-in put back
    as it stood.
    """
    dropped = 0
    for slot, message in sent:
        avatar = stand_ins[slot]
        before = avatar.position, avatar.distance_travelled
        try:
            reference_move(avatar, message)
        except MALFORMED:
            dropped += 1
            continue
        if any(coordinate not in INT64 for coordinate in avatar.position):
            avatar.position, avatar.distance_travelled = before
            dropped += 1
    return dropped


def edit_is_malformed(payload: dict) -> bool:
    """Whether an edit's coordinates fail ``int()`` or name a block outside the world's height."""
    try:
        coordinates = [int(payload[axis]) for axis in "xyz"]
    except (KeyError, TypeError, ValueError, OverflowError):
        return True
    return not 0 <= coordinates[1] < 256


EDITS = [MessageKind.PLACE_BLOCK, MessageKind.BREAK_BLOCK, MessageKind.TOGGLE_CONSTRUCT]
messages = st.lists(
    st.tuples(st.sampled_from([MessageKind.MOVE, *EDITS]), slots, values, values, values),
    min_size=1,
    max_size=10,
)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=examples(40))
@given(case=messages)
def test_a_malformed_message_is_dropped_and_counted(side, case):
    """The tick completes; the bad messages change nothing, and every other one is applied."""
    with crossover(side):
        host = Side("interest", reference=False)
        for slot in range(SLOTS):
            host.join(slot)
        stand_ins = {
            slot: Avatar(session.player_id, session.name, session.avatar.position)
            for slot, session in host.connected.items()
        }
        (server,) = host.servers
        moves, edits_dropped, placed, broken = [], 0, 0, 0
        for kind, slot, *coordinates in case:
            payload = {
                axis: value for axis, value in zip("xyz", coordinates) if value is not MISSING
            }
            host.send(slot, kind, payload)
            if kind is MessageKind.MOVE:
                moves.append((slot, Message(kind, 0, dict(payload))))
            elif edit_is_malformed(payload):
                edits_dropped += 1
            elif server.world.block_loaded(BlockPos(*(int(payload[a]) for a in "xyz"))):
                placed += kind is MessageKind.PLACE_BLOCK
                broken += kind is MessageKind.BREAK_BLOCK
        # The drain's order: sessions as they joined (slot order), each in arrival order.
        moves.sort(key=lambda entry: entry[0])
        dropped = expected_moves(stand_ins, moves) + edits_dropped
        host.host.tick()
    assert [
        (session.avatar.position, session.avatar.distance_travelled.hex())
        for session in host.connected.values()
    ] == [
        (avatar.position, avatar.distance_travelled.hex()) for avatar in stand_ins.values()
    ]
    assert server.stats.messages_processed == len(case)
    avatars = [session.avatar for session in host.connected.values()]
    assert (
        sum(avatar.blocks_placed for avatar in avatars),
        sum(avatar.blocks_broken for avatar in avatars),
    ) == (placed, broken)
    assert server.engine.metrics.counter("messages_rejected") == dropped


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("axis", "xzy")
def test_a_move_past_the_64_bit_columns_is_dropped(side, axis):
    """Coordinates are signed 64-bit: a MOVE past them is dropped and changes nothing.

    The message-by-message drain kept Python ints and took it; the columns
    turn it down as malformed.  The first player's MOVE, ahead of it, and
    the second player's next MOVE, after it, are applied.
    """
    with crossover(side):
        host = Side("fanout", reference=False)
        host.join(0)
        host.join(1)
        walker, jumper = host.connected[0].avatar, host.connected[1].avatar
        start = jumper.position
        host.send(0, MessageKind.MOVE, {"x": start.x + 3, "y": Y, "z": start.z})
        far = {"x": start.x + 5, "y": Y, "z": start.z + 5, axis: 2**63}
        host.send(1, MessageKind.MOVE, far)
        host.send(1, MessageKind.MOVE, {"x": start.x, "y": Y, "z": start.z + 4})
        host.host.tick()
    assert walker.position.x == start.x + 3 and walker.distance_travelled == 3.0
    assert jumper.position == start.offset(dz=4) and jumper.distance_travelled == 4.0
    assert host.host.engine.metrics.counter("messages_rejected") == 1
