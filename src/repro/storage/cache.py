"""Server-local cache over remote storage.

Servo's terrain storage service keeps a cache of terrain objects on the game
server (Section III-E): reads go to the cache first, misses fall through to
the blob store, and writes are buffered and flushed to remote storage
periodically.  Together with the distance prefetcher this removes the blob
store's latency tail from the game loop (Figure 13, "Serverless+Cache").
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.sim.latency import LogNormalLatency
from repro.storage.base import ObjectNotFoundError, StorageBackend, StorageOperation

#: capacity of Servo's server-local terrain cache (objects)
CACHE_CAPACITY_OBJECTS = 4096


@dataclass
class CacheStatistics:
    """Hit/miss counters for one cache instance."""

    hits: int = 0
    misses: int = 0


class CachedStorage(StorageBackend):
    """Read-through, write-behind cache in front of a remote backend.

    Cache hits cost a small in-memory/local-disk latency; misses pay the full
    remote read.  Writes update the cache immediately and are written back to
    the remote store when :meth:`flush` is called (the game server calls it
    periodically, outside the latency-critical path).
    """

    name = "cached"

    def __init__(
        self,
        remote: StorageBackend,
        rng: np.random.Generator,
        capacity_objects: int = CACHE_CAPACITY_OBJECTS,
    ) -> None:
        self._remote = remote
        self._rng = rng
        self._capacity = int(capacity_objects)
        if self._capacity < 1:
            raise ValueError("cache capacity must be at least one object")
        self._entries: OrderedDict[str, bytes] = OrderedDict()
        self._dirty: set[str] = set()
        self._hit_latency = LogNormalLatency(median_ms=1.2, sigma=0.4, floor_ms=0.2, cap_ms=30.0)
        self.stats = CacheStatistics()

    # -- cache internals -----------------------------------------------------------

    def _touch(self, key: str) -> None:
        self._entries.move_to_end(key)

    def _insert(self, key: str, data: bytes) -> None:
        self._entries[key] = data
        self._entries.move_to_end(key)
        while len(self._entries) > self._capacity:
            evicted_key, evicted_data = self._entries.popitem(last=False)
            if evicted_key in self._dirty:
                # Never lose dirty data: evicting a dirty entry forces a write-back.
                self._remote.write(evicted_key, evicted_data)
                self._dirty.discard(evicted_key)

    def is_cached(self, key: str) -> bool:
        return key in self._entries

    # -- StorageBackend API -----------------------------------------------------------

    def read(self, key: str) -> StorageOperation:
        if key in self._entries:
            self._touch(key)
            data = self._entries[key]
            latency = self._hit_latency.sample(self._rng)
            self.stats.hits += 1
            return StorageOperation(
                key=key, latency_ms=latency, size_bytes=len(data),
                hit=True, data=data,
            )
        remote_op = self._remote.read(key)
        self._insert(key, remote_op.data or b"")
        self.stats.misses += 1
        latency = remote_op.latency_ms + self._hit_latency.sample(self._rng)
        return StorageOperation(
            key=key, latency_ms=latency, size_bytes=remote_op.size_bytes, hit=False,
            data=remote_op.data,
        )

    def write(self, key: str, data: bytes) -> StorageOperation:
        self._insert(key, bytes(data))
        self._dirty.add(key)
        latency = self._hit_latency.sample(self._rng)
        return StorageOperation(key=key, latency_ms=latency, size_bytes=len(data))

    def delete(self, key: str) -> StorageOperation:
        self._entries.pop(key, None)
        self._dirty.discard(key)
        return self._remote.delete(key)

    def exists(self, key: str) -> bool:
        return key in self._entries or self._remote.exists(key)

    def list_keys(self) -> list[str]:
        return sorted(set(self._entries) | set(self._remote.list_keys()))

    def size_bytes(self, key: str) -> int:
        if key in self._entries:
            return len(self._entries[key])
        return self._remote.size_bytes(key)

    # -- Servo-specific operations ------------------------------------------------------

    def prefetch(self, key: str) -> float:
        """Bring an object into the cache off the critical path.

        Returns the remote latency paid (0 if the object was already cached or
        does not exist remotely).  The game loop does not wait for this
        latency; the prefetcher runs in the background.
        """
        if key in self._entries:
            return 0.0
        try:
            remote_op = self._remote.read(key)
        except ObjectNotFoundError:
            return 0.0
        self._insert(key, remote_op.data or b"")
        return remote_op.latency_ms

    def flush(self) -> list[StorageOperation]:
        """Write every dirty entry back to the remote store (periodic write-back)."""
        operations = []
        for key in sorted(self._dirty):
            data = self._entries.get(key)
            if data is None:
                continue
            operations.append(self._remote.write(key, data))
        self._dirty.clear()
        return operations
