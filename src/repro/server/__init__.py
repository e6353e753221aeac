"""MVE game-server substrate.

A tick-based (20 Hz) Minecraft-like game server: it owns the voxel world,
avatars and player sessions, processes client messages, manages chunk loading
and generation through a pluggable terrain provider, simulates player-built
constructs through a pluggable construct backend, and records tick-duration
metrics through a per-variant cost model.

The two baselines of the paper are assembled here (:func:`make_opencraft` and
:func:`make_minecraft`); Servo is assembled in :mod:`repro.core` by plugging
its serverless services into the same server.
"""

from repro.server.chunkmanager import (
    ChunkManager,
    LocalTerrainProvider,
    OwnershipRegion,
    TerrainProvider,
)
from repro.server.config import GameConfig
from repro.server.costmodel import (
    MINECRAFT_COST_MODEL,
    OPENCRAFT_COST_MODEL,
    SERVO_COST_MODEL,
    TickCostModel,
    TickWork,
)
from repro.server.entities import Avatar
from repro.server.gameloop import GameServer, ServerRuntime, TickRecord
from repro.server.sc_engine import ConstructBackend, ConstructTickReport, LocalConstructBackend
from repro.server.session import PlayerSession
from repro.server.variants import make_minecraft, make_opencraft

__all__ = [
    "GameConfig",
    "Avatar",
    "PlayerSession",
    "TickWork",
    "TickCostModel",
    "OPENCRAFT_COST_MODEL",
    "MINECRAFT_COST_MODEL",
    "SERVO_COST_MODEL",
    "ConstructBackend",
    "ConstructTickReport",
    "LocalConstructBackend",
    "TerrainProvider",
    "LocalTerrainProvider",
    "OwnershipRegion",
    "ChunkManager",
    "GameServer",
    "ServerRuntime",
    "TickRecord",
    "make_opencraft",
    "make_minecraft",
]
