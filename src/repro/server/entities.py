"""Avatars and entities."""

from __future__ import annotations

from dataclasses import dataclass

from repro.world.coords import BlockPos


@dataclass
class Avatar:
    """A player's in-world representation."""

    player_id: int
    name: str
    position: BlockPos
    #: blocks travelled since connecting (useful for workload statistics)
    distance_travelled: float = 0.0
    inventory_item: str = "stone"
    chat_messages_sent: int = 0
    blocks_placed: int = 0
    blocks_broken: int = 0
