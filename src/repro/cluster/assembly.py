"""Assembly of zone-partitioned clusters.

A cluster is N shards, each the same :class:`~repro.server.GameServer` a
single-server variant builds, restricted to one zone of a
:class:`~repro.cluster.partition.WorldPartitioner`.  One helper,
:func:`_build_cluster`, assembles both variants; they differ only in the store
their shards share and in how one shard is built:

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
from functools import partial
from typing import Callable, Iterator

from repro.api.hosts import register_host
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import WorldPartitioner
from repro.core.config import ServoConfig
from repro.core.servo import build_servo_server, make_servo_blob, make_servo_platform
from repro.server.config import GameConfig
from repro.server.costmodel import OPENCRAFT_COST_MODEL
from repro.server.gameloop import GameServer
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend
from repro.storage.local import LocalDiskStorage


def _build_cluster(
    engine: SimulationEngine,
    game_config: GameConfig,
    shards: int,
    name: str,
    session_store: StorageBackend,
    build_shard: Callable[..., GameServer],
) -> ClusterCoordinator:
    """Partition the world and build one shard per zone with ``build_shard``.

    ``build_shard(name=, region=, player_ids=)`` returns one shard.  ``name``
    is the variant: the cluster is ``{name}-cluster`` and shard ``zone`` is
    ``{name}-shard-{zone}``, with a ``-rN`` suffix on its Nth replacement.
    Metric names and the ``server:{name}`` RNG stream derive from these names.
    """
    partitioner = WorldPartitioner(shards)
    shard_factory = partial(_build_shard, name, partitioner, build_shard, itertools.count(1))
    return ClusterCoordinator(
        engine=engine,
        shards=[shard_factory(zone, 0) for zone in range(partitioner.shard_count)],
        partitioner=partitioner,
        config=game_config,
        session_store=session_store,
        name=f"{name}-cluster",
        shard_factory=shard_factory,
    )


def _build_shard(
    name: str,
    partitioner: WorldPartitioner,
    build_shard: Callable[..., GameServer],
    player_ids: Iterator[int],
    zone: int,
    generation: int,
) -> GameServer:
    """Shard ``zone``, or its ``generation``-th replacement (0 = original).

    A replacement rejoins the substrate the crashed shard used.
    """
    suffix = f"-r{generation}" if generation else ""
    shard_name = f"{name}-shard-{zone}{suffix}"
    return build_shard(name=shard_name, region=partitioner.region(zone), player_ids=player_ids)


@register_host("servo-cluster", cluster=True)
def build_servo_cluster(
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    servo_config: ServoConfig | None = None,
    shards: int = 2,
) -> ClusterCoordinator:
    """Build a Servo cluster: N zone shards over one platform and blob store."""
    game_config = game_config or GameConfig()
    servo_config = servo_config or ServoConfig()
    platform = make_servo_platform(engine, servo_config)
    blob = make_servo_blob(engine, servo_config)
    build_shard = partial(
        build_servo_server, engine, game_config, servo_config, platform=platform, blob=blob
    )
    return _build_cluster(
        engine, game_config, shards, "servo", blob, build_shard
    )


@register_host("opencraft-cluster", cluster=True)
def build_opencraft_cluster(
    engine: SimulationEngine,
    game_config: GameConfig | None = None,
    shards: int = 2,
) -> ClusterCoordinator:
    """Build an Opencraft cluster: N all-local zone shards over one shared disk."""
    game_config = game_config or GameConfig()
    disk = LocalDiskStorage(rng=engine.rng("cluster-disk"))
    build_shard = partial(GameServer, engine, game_config, OPENCRAFT_COST_MODEL, storage=disk)
    return _build_cluster(
        engine, game_config, shards, "opencraft", disk, build_shard
    )
