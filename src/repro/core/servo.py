"""Assembly of a Servo game server.

``build_servo_server`` hands the serverless services to the unmodified game
server as its storage, terrain provider and construct backend: the cached
remote storage service, the serverless terrain provider and the speculative
construct backend, all running against one simulated FaaS platform and blob
store of the chosen provider.  The returned server exposes the attached
services through its typed ``runtime`` handle (a :class:`ServoRuntime`) so
experiments can inspect invocations, billing, cache statistics and
speculation records.

The platform (:func:`make_servo_platform`, both functions deployed) and the
blob store (:func:`make_servo_blob`) are made separately, so a zone-partitioned
cluster builds them once and shares them across its Servo shards while each
shard keeps its own cache and speculation state (see :mod:`repro.cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.api.hosts import register_host
from repro.core.config import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, SimulationHandler
from repro.core.speculative import SpeculativeConstructBackend
from repro.core.storage_service import ServoStorageService
from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    TerrainHandler,
)
from repro.faas.function import FunctionDefinition
from repro.faas.platform import FaasPlatform
from repro.faas.providers import provider_by_name
from repro.server.chunkmanager import OwnershipRegion
from repro.server.config import WORLD_SEED, GameConfig
from repro.server.costmodel import SERVO_COST_MODEL
from repro.server.gameloop import GameServer, ServerRuntime
from repro.sim.engine import SimulationEngine
from repro.storage.blob import AWS_S3_STANDARD, AZURE_BLOB_STANDARD, BlobStorage

#: memory of the construct-simulation function (MB): one full vCPU
SIMULATION_FUNCTION_MEMORY_MB = 1769
#: memory of the terrain-generation function (MB)
TERRAIN_FUNCTION_MEMORY_MB = 2048
#: the prefetcher runs every this many ticks
PREFETCH_INTERVAL_TICKS = 10


@dataclass
class ServoRuntime(ServerRuntime):
    """Handles to the serverless services attached to a Servo server."""

    config: ServoConfig
    platform: FaasPlatform
    storage: ServoStorageService
    terrain_provider: ServerlessTerrainProvider

    @property
    def billing(self):
        return self.platform.billing

    def before_tick(self, server: GameServer, tick_index: int) -> None:
        """The prefetcher runs periodically, off the latency-critical path."""
        if tick_index % PREFETCH_INTERVAL_TICKS == 0:
            self.storage.prefetch_for_avatars([s.avatar for s in server.sessions.values()])


def make_servo_platform(engine: SimulationEngine, servo_config: ServoConfig) -> FaasPlatform:
    """Create a FaaS platform with the two Servo functions deployed."""
    platform = FaasPlatform(engine, provider=provider_by_name(servo_config.provider))
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION,
            handler=SimulationHandler(),
            memory_mb=SIMULATION_FUNCTION_MEMORY_MB,
            description="speculative simulation of one simulated construct",
        )
    )
    platform.register(
        FunctionDefinition(
            name=TERRAIN_GENERATION_FUNCTION,
            handler=TerrainHandler(),
            memory_mb=TERRAIN_FUNCTION_MEMORY_MB,
            description="procedural generation of one terrain chunk",
        )
    )
    return platform


def make_servo_blob(engine: SimulationEngine, servo_config: ServoConfig) -> BlobStorage:
    """Create the provider-matched blob store Servo persists state into."""
    blob_profile = AWS_S3_STANDARD if servo_config.provider == "aws" else AZURE_BLOB_STANDARD
    return BlobStorage(rng=engine.rng("servo-blob"), profile=blob_profile)


@register_host("servo")
def build_servo_server(
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    servo_config: ServoConfig | None = None,
    *,
    platform: FaasPlatform | None = None,
    blob: BlobStorage | None = None,
    name: str = "servo",
    region: Optional[OwnershipRegion] = None,
    player_ids: Optional[Iterator[int]] = None,
) -> GameServer:
    """Build a game server running the Servo serverless backend.

    The server keeps the 20 Hz loop and client protocol of the baselines
    (Requirement R4); only the backend services change.  ``platform`` and
    ``blob`` default to fresh instances; a cluster passes shared ones (a
    platform from :func:`make_servo_platform`, the functions already deployed)
    so all shards bill against one provider account and persist into one store.
    """
    game_config = game_config or GameConfig()
    servo_config = servo_config or ServoConfig()
    platform = platform if platform is not None else make_servo_platform(engine, servo_config)
    blob = blob if blob is not None else make_servo_blob(engine, servo_config)

    # Remote state storage with the Servo cache and prefetcher in front.
    storage = ServoStorageService(
        engine=engine, remote=blob, view_distance_blocks=game_config.view_distance_blocks
    )
    terrain_provider = ServerlessTerrainProvider(
        engine=engine,
        platform=platform,
        world_type=game_config.world_type,
        seed=WORLD_SEED,
    )
    construct_backend = SpeculativeConstructBackend(
        engine=engine, platform=platform, config=servo_config
    )
    runtime = ServoRuntime(
        config=servo_config,
        platform=platform,
        storage=storage,
        terrain_provider=terrain_provider,
    )

    return GameServer(
        engine,
        game_config,
        SERVO_COST_MODEL,
        name=name,
        storage=storage,
        terrain_provider=terrain_provider,
        construct_backend=construct_backend,
        runtime=runtime,
        region=region,
        player_ids=player_ids,
    )
