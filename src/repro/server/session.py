"""Player sessions: the server-side endpoint of one connected client.

A session's avatar is a row of its server's :class:`~repro.server.entities.AvatarTable`
while the server has adopted it, and carries its own values otherwise (see
:mod:`repro.server.entities`).  :func:`drain_pending` empties the inboxes of a
server's pending sessions in one pass.

Besides the live session object this module defines the serialized form of a
player's state: :func:`snapshot_session` turns a session into bytes suitable
for persistent storage, and :func:`restore_avatar_state` applies stored bytes
back onto a (fresh) avatar.  The same format is used for ordinary
disconnect/reconnect persistence and for cross-shard player migration in a
cluster, where the snapshot travels through the shared storage service.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from repro.net.message import Message, MessageKind
from repro.server.entities import Avatar
from repro.world.coords import BlockPos

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.broadcast import FullFanout


@dataclass
class PlayerSession:
    """One connected player: avatar plus the inbound message queue."""

    player_id: int
    name: str
    avatar: Avatar
    _inbox: list[Message] = field(default_factory=list)
    disconnected: bool = False
    #: updates accounted before/outside the attached broadcast clock
    _updates_sent_base: int = 0
    _broadcast_clock: Optional["FullFanout"] = None
    _broadcast_attach_ticks: int = 0
    #: ordered index of player ids with queued messages, shared with the server
    _pending_index: Optional[dict[int, None]] = None
    #: lossy message channel (fault injection); None means a perfect wire
    _channel: Optional[object] = None

    # -- outbound accounting ---------------------------------------------------------

    @property
    def updates_sent(self) -> int:
        """State updates sent to this client (a proxy for outbound bandwidth)."""
        if self._broadcast_clock is None:
            return self._updates_sent_base
        return self._updates_sent_base + (
            self._broadcast_clock.ticks - self._broadcast_attach_ticks
        )

    def record_updates(self, count: int = 1) -> None:
        """Account ``count`` actually-sent updates (interest-managed flushes).

        With area-of-interest broadcast the session receives delta batches,
        not one update per tick, so ``updates_sent`` is derived from the
        flushes that really happened; no broadcast clock is attached.  The
        count freezes on disconnect/migration exactly as under full fan-out —
        the base value simply stops growing.
        """
        self._updates_sent_base += int(count)

    def attach_broadcast_clock(self, clock: "FullFanout") -> None:
        """Start deriving ``updates_sent`` from a full fan-out's broadcast rounds."""
        self._broadcast_clock = clock
        self._broadcast_attach_ticks = clock.ticks

    def detach_broadcast_clock(self) -> None:
        """Freeze ``updates_sent`` at its current value (disconnect/migration)."""
        self._updates_sent_base = self.updates_sent
        self._broadcast_clock = None

    # -- inbound queue ---------------------------------------------------------------

    def attach_pending_index(self, index: dict[int, None]) -> None:
        """Register this session in a server's pending-message index."""
        self._pending_index = index
        if self._inbox:
            index[self.player_id] = None

    def attach_channel(self, channel: object) -> None:
        """Route future client messages through a (lossy) message channel."""
        self._channel = channel

    def enqueue(self, message: Message) -> None:
        """Queue a client message for processing in the next tick.

        With a fault channel attached, fresh client messages (no ``sequence``
        stamp yet) go through the channel, which may drop, duplicate or delay
        them; stamped messages — channel deliveries and server-internal
        requeues such as a migration handing over undrained messages — are
        appended directly, so they are never faulted (or deduplicated) twice.
        """
        if message.player_id != self.player_id:
            raise ValueError(
                f"message for player {message.player_id} enqueued on session {self.player_id}"
            )
        if self.disconnected:
            raise RuntimeError(f"session {self.player_id} is disconnected")
        if self._channel is not None and message.sequence is None:
            self._channel.send(self, message)
            return
        if not self._inbox and self._pending_index is not None:
            self._pending_index[self.player_id] = None
        self._inbox.append(message)

    def drain(self) -> list[Message]:
        """Remove and return every queued message (called once per tick)."""
        messages, self._inbox = self._inbox, []
        if messages and self._pending_index is not None:
            self._pending_index.pop(self.player_id, None)
        return messages

    def move(self, x: int, y: int, z: int) -> None:
        """Convenience wrapper: queue a MOVE message."""
        self.enqueue(Message(MessageKind.MOVE, self.player_id, {"x": x, "y": y, "z": z}))

    def chat(self, text: str) -> None:
        self.enqueue(Message(MessageKind.CHAT, self.player_id, {"text": text}))


def drain_pending(
    sessions: dict[int, PlayerSession], pending: dict[int, None]
) -> tuple[list[PlayerSession], list[Message]]:
    """Empty the inbox of every session in ``pending`` (the server's index).

    Returns ``(senders, messages)``: every queued message, sessions in
    ``sessions`` order and each one's in arrival order, and the session that
    sent each.  The same as calling :meth:`PlayerSession.drain` on each,
    without a call per session.
    """
    drained = [session for player_id, session in sessions.items() if player_id in pending]
    pending.clear()
    inboxes = list(map(_INBOX, drained))
    for session in drained:
        session._inbox = []
    senders = [session for session, inbox in zip(drained, inboxes) for _ in inbox]
    return senders, list(chain.from_iterable(inboxes))


_INBOX = attrgetter("_inbox")


# -- serialized player state -------------------------------------------------------


def snapshot_session(session: PlayerSession) -> bytes:
    """Serialize the persistent part of a session (the avatar's state)."""
    avatar = session.avatar
    state = {
        "name": session.name,
        "position": [avatar.position.x, avatar.position.y, avatar.position.z],
        "distance_travelled": avatar.distance_travelled,
        "inventory_item": avatar.inventory_item,
        "chat_messages_sent": avatar.chat_messages_sent,
        "blocks_placed": avatar.blocks_placed,
        "blocks_broken": avatar.blocks_broken,
    }
    return json.dumps(state, sort_keys=True).encode("utf-8")


def restore_avatar_state(avatar: Avatar, data: bytes, restore_position: bool = True) -> bool:
    """Apply a stored snapshot onto ``avatar``; returns False for unreadable data.

    ``restore_position`` is disabled when the caller already knows the
    authoritative position (e.g. a migration hands the avatar over at its live
    position, which may be newer than the stored one).
    """
    try:
        state = json.loads(data.decode("utf-8"))
        if not isinstance(state, dict):
            return False
        # Parse every field before touching the avatar, so a snapshot with a
        # corrupt field leaves the avatar untouched instead of half-restored.
        position = state.get("position")
        parsed_position = (
            # A coordinate past the 64-bit avatar columns is corrupt, like text.
            BlockPos(*array("q", (int(position[0]), int(position[1]), int(position[2]))))
            if isinstance(position, list) and len(position) == 3
            else None
        )
        distance_travelled = float(state.get("distance_travelled", avatar.distance_travelled))
        inventory_item = str(state.get("inventory_item", avatar.inventory_item))
        chat_messages_sent = int(state.get("chat_messages_sent", avatar.chat_messages_sent))
        blocks_placed = int(state.get("blocks_placed", avatar.blocks_placed))
        blocks_broken = int(state.get("blocks_broken", avatar.blocks_broken))
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError, ValueError, OverflowError):
        return False
    if restore_position and parsed_position is not None:
        avatar.position = parsed_position
    avatar.distance_travelled = distance_travelled
    avatar.inventory_item = inventory_item
    avatar.chat_messages_sent = chat_messages_sent
    avatar.blocks_placed = blocks_placed
    avatar.blocks_broken = blocks_broken
    return True
