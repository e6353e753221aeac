"""Game server configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.world.coords import BlockPos


@dataclass(frozen=True)
class GameConfig:
    """Static configuration of one MVE server instance.

    Defaults follow the paper's setup: a 20 Hz simulation rate (50 ms tick
    budget) and a 128-block view distance.
    """

    #: simulation rate R in ticks per second
    simulation_rate_hz: float = 20.0
    #: player view distance in blocks (the paper's default is 128)
    view_distance_blocks: float = 128.0
    #: world type: "default" (procedural) or "flat"
    world_type: str = "default"
    #: world generation seed
    world_seed: int = 0
    #: where newly connected players spawn
    spawn_position: BlockPos = BlockPos(8, 65, 8)
    #: how often dirty terrain is written back to persistent storage
    persistence_interval_s: float = 30.0
    #: maximum number of chunks integrated into the world per tick
    max_chunk_integrations_per_tick: int = 8
    #: area-of-interest radius in chunks around each player's avatar; ``None``
    #: or 0 keeps the paper's full fan-out broadcast (bit-identical to the
    #: pre-interest behaviour)
    interest_radius_chunks: Optional[int] = None
    #: chunks within this Chebyshev distance of the subscriber's center are
    #: the *near* zone: their updates flush every tick
    interest_near_radius_chunks: int = 1
    #: dyconit staleness budget: a far-zone delta batch is flushed before any
    #: of its entries becomes older than this many ticks
    interest_max_staleness_ticks: int = 5
    #: dyconit numerical-error budget: accumulated positional drift (blocks)
    #: in a far zone that forces a flush before the staleness budget expires
    interest_max_drift_blocks: float = 8.0

    def __post_init__(self) -> None:
        if self.simulation_rate_hz <= 0:
            raise ValueError("simulation_rate_hz must be positive")
        if self.view_distance_blocks <= 0:
            raise ValueError("view_distance_blocks must be positive")
        if self.world_type not in ("default", "flat"):
            raise ValueError(f"unknown world type {self.world_type!r}")
        if self.max_chunk_integrations_per_tick < 1:
            raise ValueError("max_chunk_integrations_per_tick must be at least 1")
        if self.interest_radius_chunks is not None and self.interest_radius_chunks < 0:
            raise ValueError("interest_radius_chunks must be non-negative (or None)")
        if self.interest_near_radius_chunks < 0:
            raise ValueError("interest_near_radius_chunks must be non-negative")
        if self.interest_enabled and (
            self.interest_near_radius_chunks > self.interest_radius_chunks
        ):
            raise ValueError(
                "interest_near_radius_chunks must not exceed interest_radius_chunks"
            )
        if self.interest_max_staleness_ticks < 1:
            raise ValueError("interest_max_staleness_ticks must be at least 1")
        if self.interest_max_drift_blocks <= 0:
            raise ValueError("interest_max_drift_blocks must be positive")

    @property
    def interest_enabled(self) -> bool:
        """True when area-of-interest broadcast is on (radius ``None``/0 = full fan-out)."""
        return bool(self.interest_radius_chunks)

    @property
    def tick_interval_ms(self) -> float:
        """The tick budget 1/R in milliseconds (50 ms at 20 Hz)."""
        return 1000.0 / self.simulation_rate_hz
