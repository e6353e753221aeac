"""The message drain as it was before a tick's MOVEs became one pass over the avatar table.

The executable spec of ``GameServer._drain_messages``.  Copied from
``src/repro/server/gameloop.py`` at commit 49f7344 (the drain loop of
``GameServer.tick_begin`` and the MOVE branch of ``_process_message``; only
the names, this docstring and the split below differ): every message, a MOVE included, is
applied on its own, in sessions-dict order and then arrival order, and a
MOVE reads and writes the avatar through ``Avatar.position``.  Full
fan-out's ``note_dirty`` was a no-op then and is not called now, so the
spec calls it only for an interest map.

The MOVE branch is :func:`reference_move`, split out so that it returns the
crossing and the dirty event instead of recording them.  It works on any
avatar.  On an unbound one, which keeps its own Python-int position as every
avatar did before the columns, it judges a payload as that drain judged it,
a coordinate past 64 bits included.

One change since that commit: a malformed message no longer ends the tick.
A MOVE whose conversion or position write raises, or any other message that
``_process_message`` turns down, is dropped and counted in the
``messages_rejected`` metric, and the drain goes on with the next message.

``test_drain_differential.py`` drives a server whose ``_drain_messages`` is
:func:`reference_drain` beside a production one and requires the same
positions, distances, ``_moved`` order, dirty events and statistics; its
malformed-payload case runs :func:`reference_move` on unbound stand-ins.
Nothing under ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` imports
this module.
"""

from __future__ import annotations

import math
from types import MethodType

from repro.net.message import Message, MessageKind
from repro.server.costmodel import TickWork
from repro.server.entities import MALFORMED, Avatar
from repro.server.gameloop import GameServer
from repro.world.coords import CHUNK_SIZE, BlockPos


def reference_drain(server: GameServer, work: TickWork) -> None:
    """Process every queued client message, one message at a time."""
    pending = server._pending_messages
    for player_id, session in server.sessions.items():
        if player_id not in pending:
            continue
        for message in session.drain():
            work.actions += 1
            server.stats.messages_processed += 1
            if message.kind is MessageKind.MOVE:
                avatar = session.avatar
                try:
                    crossed, chunk, distance = reference_move(avatar, message)
                except MALFORMED:
                    reject(server)
                    continue
                if crossed:
                    server._moved.append(avatar)
                if server.interest is not None:
                    server.broadcast.note_dirty(
                        chunk, drift=distance, source_player_id=avatar.player_id
                    )
            elif not server._process_message(session, message):
                reject(server)


def reject(server: GameServer) -> None:
    """Count one dropped message."""
    server.engine.metrics.increment("messages_rejected")


def reference_move(avatar: Avatar, message: Message) -> tuple[bool, tuple[int, int], float]:
    """One MOVE: step the avatar and add the distance.

    Returns whether the step crossed a chunk edge, the chunk stepped into and
    the step's length.
    """
    payload = message.payload
    x, z = int(payload["x"]), int(payload["z"])
    old = avatar.position
    distance = math.hypot(old.x - x, old.z - z)
    avatar.position = BlockPos(x, int(payload["y"]), z)
    avatar.distance_travelled += distance
    cx, cz = x // CHUNK_SIZE, z // CHUNK_SIZE
    return cx != old.x // CHUNK_SIZE or cz != old.z // CHUNK_SIZE, (cx, cz), distance


def use_reference_drain(server: GameServer) -> None:
    """Make ``server`` drain its messages with :func:`reference_drain`."""
    server._drain_messages = MethodType(reference_drain, server)
