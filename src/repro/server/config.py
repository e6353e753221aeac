"""Game server configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.world.coords import BlockPos

#: the tick budget 1/R: the paper's servers simulate at R = 20 Hz
TICK_INTERVAL_MS = 50.0
#: seed of every server's terrain generator
WORLD_SEED = 0


@dataclass(frozen=True)
class GameConfig:
    """Static configuration of one MVE server instance.

    Defaults follow the paper's setup: a 128-block view distance on procedural
    terrain.  Every server runs the 20 Hz loop (:data:`TICK_INTERVAL_MS`).
    """

    #: player view distance in blocks (the paper's default is 128)
    view_distance_blocks: float = 128.0
    #: world type: "default" (procedural) or "flat"
    world_type: str = "default"
    #: where newly connected players spawn
    spawn_position: BlockPos = BlockPos(8, 65, 8)
    #: area-of-interest radius in chunks around each player's avatar; ``None``
    #: or 0 keeps the paper's full fan-out broadcast (bit-identical to the
    #: pre-interest behaviour)
    interest_radius_chunks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.view_distance_blocks <= 0:
            raise ValueError("view_distance_blocks must be positive")
        if self.world_type not in ("default", "flat"):
            raise ValueError(f"unknown world type {self.world_type!r}")
        if self.interest_radius_chunks is not None and self.interest_radius_chunks < 0:
            raise ValueError("interest_radius_chunks must be non-negative (or None)")

    @property
    def interest_enabled(self) -> bool:
        """True when area-of-interest broadcast is on (radius ``None``/0 = full fan-out)."""
        return bool(self.interest_radius_chunks)

    @property
    def tick_interval_ms(self) -> float:
        """The tick budget 1/R in milliseconds (:data:`TICK_INTERVAL_MS`)."""
        return TICK_INTERVAL_MS
