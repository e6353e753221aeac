"""Remote state storage with caching and prefetching (Section III-E).

Servo stores terrain (and player/meta) data in serverless blob storage, which
removes storage operations from the game operator's responsibilities but has a
heavy latency tail.  The storage service hides that tail from the game loop
with a server-local cache and a distance-based prefetcher: terrain just beyond
the players' view distance is pulled into the cache before it is needed, so
the synchronous read the chunk manager performs is almost always a cache hit.
Every operation goes through the cache; dirty objects reach blob storage when
the cache evicts them or on :meth:`ServoStorageService.flush`.
"""

from __future__ import annotations

from typing import Iterable

from repro.server.entities import Avatar
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend, StorageOperation
from repro.storage.blob import BlobStorage
from repro.storage.cache import CACHE_CAPACITY_OBJECTS, CachedStorage
from repro.storage.prefetch import (
    PREFETCH_MARGIN_BLOCKS,
    DistancePrefetcher,
    DistancePrefetchPolicy,
)


class ServoStorageService(StorageBackend):
    """Cached, prefetching facade over serverless blob storage."""

    name = "servo-storage"

    def __init__(
        self,
        engine: SimulationEngine,
        remote: BlobStorage,
        view_distance_blocks: float = 128.0,
        prefetch_margin_blocks: float = PREFETCH_MARGIN_BLOCKS,
        cache_capacity_objects: int = CACHE_CAPACITY_OBJECTS,
    ) -> None:
        self.engine = engine
        self.remote = remote
        self.cache = CachedStorage(
            remote=remote,
            rng=engine.rng("servo-storage-cache"),
            capacity_objects=cache_capacity_objects,
        )
        self.policy = DistancePrefetchPolicy(
            view_distance_blocks=view_distance_blocks,
            prefetch_margin_blocks=prefetch_margin_blocks,
        )
        self._prefetcher = DistancePrefetcher(self.policy, self.cache, remote)
        self.metrics = engine.metrics

    # -- StorageBackend API --------------------------------------------------------------

    def read(self, key: str) -> StorageOperation:
        operation = self.cache.read(key)
        self.metrics.histogram("storage_read_ms").record(operation.latency_ms)
        return operation

    def write(self, key: str, data: bytes) -> StorageOperation:
        return self.cache.write(key, data)

    def delete(self, key: str) -> StorageOperation:
        return self.cache.delete(key)

    def exists(self, key: str) -> bool:
        return self.cache.exists(key)

    def list_keys(self) -> list[str]:
        return self.cache.list_keys()

    def size_bytes(self, key: str) -> int:
        return self.cache.size_bytes(key)

    # -- Servo-specific behaviour -----------------------------------------------------------

    def prefetch_for_avatars(self, avatars: Iterable[Avatar]) -> int:
        """Prefetch terrain objects near (but outside) the players' view distance.

        Returns the number of objects brought into the cache.  Prefetch reads
        happen off the game loop's critical path, so their latency is not
        accounted against any tick.
        """
        if self.remote.chunk_object_count == 0:
            # No chunk persisted (a cluster's session records do not count):
            # no candidate can pass ``remote.exists``, so planning is skipped.
            return 0
        fetched = self._prefetcher.prefetch([avatar.position for avatar in avatars])
        if fetched:
            self.metrics.increment("prefetched_objects", fetched)
        return fetched

    def flush(self) -> int:
        """Write dirty cached objects back to blob storage (periodic write-back)."""
        return len(self.cache.flush())
