"""Client-server protocol messages.

Servo explicitly does not change the client protocol (Requirement R4): the
message vocabulary below is the unmodified MVE protocol the clients already
speak.  Bots produce these messages; the server consumes them in its tick.

On the host a :class:`Message` is a named tuple (one is built per player per
tick, so construction cost is tick time); that is this program's in-memory
representation only, not a change to what travels between client and server.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, NamedTuple, Optional


class MessageKind(Enum):
    """Kinds of client-to-server messages."""

    MOVE = "move"
    PLACE_BLOCK = "place_block"
    BREAK_BLOCK = "break_block"
    CHAT = "chat"
    SET_INVENTORY = "set_inventory"
    TOGGLE_CONSTRUCT = "toggle_construct"
    IDLE = "idle"


class _MessageFields(NamedTuple):
    kind: MessageKind
    player_id: int
    payload: dict[str, Any]
    #: per-player wire sequence number, stamped by the message channel when a
    #: fault plan is active; None for messages that never crossed the channel.
    #: Deliveries are deduplicated on it (idempotent update application).
    sequence: Optional[int]


class Message(_MessageFields):
    """One client-to-server message."""

    __slots__ = ()

    def __new__(
        cls,
        kind: MessageKind,
        player_id: int,
        payload: Optional[dict[str, Any]] = None,
        sequence: Optional[int] = None,
    ) -> "Message":
        if player_id < 0:
            raise ValueError("player_id must be non-negative")
        return tuple.__new__(cls, (kind, player_id, {} if payload is None else payload, sequence))
