"""Composable assembly of game servers.

Every server variant — the Opencraft/Minecraft baselines, Servo, and the
shards of a zone-partitioned cluster — is the same :class:`GameServer` with
different services plugged in: a terrain provider, a construct backend, a
storage backend, a cost model and a broadcast policy.  :class:`ServerBuilder`
is the one place that wires those parts together, so variants differ only in
which services they register, not in construction logic.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.interest import InterestMap
from repro.server.broadcast import FullFanout
from repro.server.chunkmanager import (
    ChunkManager,
    LocalTerrainProvider,
    OwnershipRegion,
    TerrainProvider,
)
from repro.server.config import GameConfig
from repro.server.costmodel import OPENCRAFT_COST_MODEL, TickCostModel
from repro.server.gameloop import GameServer, ServerRuntime
from repro.server.sc_engine import ConstructBackend, LocalConstructBackend
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend
from repro.storage.local import LocalDiskStorage
from repro.world.terrain import make_terrain_generator
from repro.world.world import VoxelWorld


class ServerBuilder:
    """Fluent assembly of one :class:`GameServer` from pluggable services.

    Unset services fall back to the all-local baseline parts: local disk
    storage, a two-worker local terrain pool, a local construct backend and the
    Opencraft cost model.  Builders are single-use: :meth:`build` consumes the
    configuration and returns the server.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        config: GameConfig | None = None,
        name: str = "server",
    ) -> None:
        self.engine = engine
        self.config = config or GameConfig()
        self.name = name
        self._cost_model: TickCostModel = OPENCRAFT_COST_MODEL
        self._storage: Optional[StorageBackend] = None
        self._terrain_provider: Optional[TerrainProvider] = None
        self._construct_backend: Optional[ConstructBackend] = None
        self._region: Optional[OwnershipRegion] = None
        self._runtime: Optional[ServerRuntime] = None
        self._player_ids: Optional[Iterator[int]] = None

    # -- services -------------------------------------------------------------------

    def with_cost_model(self, cost_model: TickCostModel) -> "ServerBuilder":
        self._cost_model = cost_model
        return self

    def with_storage(self, storage: StorageBackend) -> "ServerBuilder":
        """Persist into ``storage`` instead of a fresh local disk."""
        self._storage = storage
        return self

    def with_terrain_provider(self, provider: TerrainProvider) -> "ServerBuilder":
        self._terrain_provider = provider
        return self

    def with_construct_backend(self, backend: ConstructBackend) -> "ServerBuilder":
        self._construct_backend = backend
        return self

    # -- cluster / runtime ----------------------------------------------------------

    def with_region(self, region: Optional[OwnershipRegion]) -> "ServerBuilder":
        """Restrict the server to an ownership zone (cluster shards)."""
        self._region = region
        return self

    def with_runtime(self, runtime: Optional[ServerRuntime]) -> "ServerBuilder":
        """Attach a typed handle to backend-specific services."""
        self._runtime = runtime
        return self

    def with_player_ids(self, player_ids: Optional[Iterator[int]]) -> "ServerBuilder":
        """Share a player-id iterator across cluster shards."""
        self._player_ids = player_ids
        return self

    # -- assembly -------------------------------------------------------------------

    def build(self) -> GameServer:
        config = self.config
        generator = make_terrain_generator(config.world_type, seed=config.world_seed)
        world = VoxelWorld()
        storage = self._storage or LocalDiskStorage(rng=self.engine.rng(f"{self.name}-disk"))
        provider = self._terrain_provider or LocalTerrainProvider(self.engine, generator)
        backend = self._construct_backend or LocalConstructBackend(
            interval=self._cost_model.construct_tick_interval
        )
        chunk_manager = ChunkManager(
            engine=self.engine,
            world=world,
            generator=generator,
            provider=provider,
            storage=storage,
            view_distance_blocks=config.view_distance_blocks,
            max_integrations_per_tick=config.max_chunk_integrations_per_tick,
            region=self._region,
        )
        # The one place the broadcast mode is decided.
        broadcast: FullFanout | InterestMap
        if config.interest_enabled:
            broadcast = InterestMap(
                radius_chunks=config.interest_radius_chunks,
                near_radius_chunks=config.interest_near_radius_chunks,
                max_staleness_ticks=config.interest_max_staleness_ticks,
                max_drift_blocks=config.interest_max_drift_blocks,
            )
            # Subscription centres ride the chunk manager's crossing detection.
            chunk_manager.center_listeners.append(broadcast.update_center)
        else:
            broadcast = FullFanout()
        return GameServer(
            engine=self.engine,
            config=config,
            world=world,
            chunk_manager=chunk_manager,
            construct_backend=backend,
            cost_model=self._cost_model,
            broadcast=broadcast,
            storage=storage,
            name=self.name,
            runtime=self._runtime,
            region=self._region,
            player_ids=self._player_ids,
        )
