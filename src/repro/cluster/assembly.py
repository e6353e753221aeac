"""Assembly of zone-partitioned clusters.

A cluster is N shards built from the same parts as the single-server variants
(via :class:`~repro.server.builder.ServerBuilder`), each restricted to one
zone of a :class:`~repro.cluster.partition.WorldPartitioner`:

* ``build_servo_cluster`` — Servo shards sharing one FaaS platform and one
  blob store; player migrations serialize through the shared blob (paying its
  real round-trip latency), while each shard keeps its own cache, prefetcher
  and speculation state.
* ``build_opencraft_cluster`` — baseline shards sharing one disk store (a
  shared network disk), the natural multi-server deployment of Opencraft.

All shards share the caller's :class:`~repro.sim.SimulationEngine` and a
player-id iterator, so player ids are unique across the whole world.
"""

from __future__ import annotations

import itertools

from repro.api.hosts import register_host
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import WorldPartitioner
from repro.core.config import ServoConfig
from repro.core.servo import build_servo_server, make_servo_blob, make_servo_platform
from repro.server.builder import ServerBuilder
from repro.server.config import GameConfig
from repro.server.costmodel import OPENCRAFT_COST_MODEL
from repro.sim.engine import SimulationEngine
from repro.storage.local import LocalDiskStorage

#: zone strip width used by the cluster experiments (16 chunks = 256 blocks)
DEFAULT_ZONE_WIDTH_CHUNKS = 16


@register_host("servo-cluster", cluster=True)
def build_servo_cluster(
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    servo_config: ServoConfig | None = None,
    shards: int = 2,
    zone_width_chunks: int = DEFAULT_ZONE_WIDTH_CHUNKS,
) -> ClusterCoordinator:
    """Build a Servo cluster: N zone shards over one platform and blob store."""
    game_config = game_config or GameConfig()
    servo_config = servo_config or ServoConfig()
    partitioner = WorldPartitioner(shards, zone_width_chunks=zone_width_chunks)
    platform = make_servo_platform(engine, servo_config)
    blob = make_servo_blob(engine, servo_config)
    player_ids = itertools.count(1)

    def shard_factory(zone: int, generation: int) -> "GameServer":
        """A (replacement) shard for ``zone``; generation 0 is the original.

        Replacements share the cluster's platform, blob store and player-id
        iterator, exactly like the originals — a respawned shard rejoins the
        same serverless substrate the crashed one used.
        """
        suffix = f"-r{generation}" if generation else ""
        return build_servo_server(
            engine,
            game_config,
            servo_config,
            platform=platform,
            blob=blob,
            name=f"servo-shard-{zone}{suffix}",
            region=partitioner.region(zone),
            player_ids=player_ids,
        )

    servers = [shard_factory(zone, 0) for zone in range(partitioner.shard_count)]
    return ClusterCoordinator(
        engine=engine,
        shards=servers,
        partitioner=partitioner,
        config=game_config,
        session_store=blob,
        name="servo-cluster",
        shard_factory=shard_factory,
    )


@register_host("opencraft-cluster", cluster=True)
def build_opencraft_cluster(
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    shards: int = 2,
    zone_width_chunks: int = DEFAULT_ZONE_WIDTH_CHUNKS,
) -> ClusterCoordinator:
    """Build an Opencraft cluster: N all-local zone shards over one shared disk."""
    game_config = game_config or GameConfig()
    partitioner = WorldPartitioner(shards, zone_width_chunks=zone_width_chunks)
    shared_disk = LocalDiskStorage(rng=engine.rng("cluster-disk"))
    player_ids = itertools.count(1)

    def shard_factory(zone: int, generation: int) -> "GameServer":
        suffix = f"-r{generation}" if generation else ""
        return (
            ServerBuilder(engine, game_config, name=f"opencraft-shard-{zone}{suffix}")
            .with_cost_model(OPENCRAFT_COST_MODEL)
            .with_storage(shared_disk)
            .with_region(partitioner.region(zone))
            .with_player_ids(player_ids)
            .build()
        )

    servers = [shard_factory(zone, 0) for zone in range(partitioner.shard_count)]
    return ClusterCoordinator(
        engine=engine,
        shards=servers,
        partitioner=partitioner,
        config=game_config,
        session_store=shared_disk,
        name="opencraft-cluster",
        shard_factory=shard_factory,
    )
