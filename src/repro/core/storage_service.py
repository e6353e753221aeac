"""Remote state storage with caching and prefetching (Section III-E).

Servo stores terrain (and player/meta) data in serverless blob storage, which
removes storage operations from the game operator's responsibilities but has a
heavy latency tail.  The storage service hides that tail from the game loop
with a server-local cache and a distance-based prefetcher: terrain just beyond
the players' view distance is pulled into the cache before it is needed, so
the synchronous read the chunk manager performs is almost always a cache hit.
"""

from __future__ import annotations

from typing import Iterable

from repro.server.entities import Avatar
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend, StorageOperation
from repro.storage.blob import BlobStorage
from repro.storage.cache import CachedStorage
from repro.storage.prefetch import DistancePrefetcher, DistancePrefetchPolicy


class ServoStorageService(StorageBackend):
    """Cached, prefetching facade over serverless blob storage."""

    name = "servo-storage"

    def __init__(
        self,
        engine: SimulationEngine,
        remote: BlobStorage,
        view_distance_blocks: float = 128.0,
        prefetch_margin_blocks: float = 48.0,
        cache_capacity_objects: int = 4096,
        enable_cache: bool = True,
    ) -> None:
        self.engine = engine
        self.remote = remote
        self.enable_cache = enable_cache
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

    def _backend(self) -> StorageBackend:
        return self.cache if self.enable_cache else self.remote

    # -- StorageBackend API --------------------------------------------------------------

    def read(self, key: str) -> StorageOperation:
        operation = self._backend().read(key)
        self.metrics.histogram("storage_read_ms").record(operation.latency_ms)
        return operation

    def write(self, key: str, data: bytes) -> StorageOperation:
        return self._backend().write(key, data)

    def delete(self, key: str) -> StorageOperation:
        return self._backend().delete(key)

    def exists(self, key: str) -> bool:
        return self._backend().exists(key)

    def list_keys(self) -> list[str]:
        return self._backend().list_keys()

    def size_bytes(self, key: str) -> int:
        return self._backend().size_bytes(key)

    # -- Servo-specific behaviour -----------------------------------------------------------

    def prefetch_for_avatars(self, avatars: Iterable[Avatar]) -> int:
        """Prefetch terrain objects near (but outside) the players' view distance.

        Returns the number of objects brought into the cache.  Prefetch reads
        happen off the game loop's critical path, so their latency is not
        accounted against any tick.
        """
        if not self.enable_cache:
            return 0
        if self.remote.object_count == 0:
            return 0  # nothing persisted yet; planning would be pointless work
        fetched = self._prefetcher.prefetch([avatar.position for avatar in avatars])
        if fetched:
            self.metrics.increment("prefetched_objects", fetched)
        return fetched

    def flush(self) -> int:
        """Write dirty cached objects back to blob storage (periodic write-back)."""
        if not self.enable_cache:
            return 0
        return len(self.cache.flush())

    @property
    def hit_rate(self) -> float:
        return self.cache.stats.hit_rate
