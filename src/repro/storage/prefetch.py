"""Distance-based prefetch policy.

Servo hides blob-storage latency by prefetching terrain data that is outside
of, but close to, the players' view distance (Section III-E).  The policy
computes, from the current avatar positions, the chunks that should be
resident (the view set) and those that should be prefetched (the ring just
beyond the view distance), as one packed ``int64`` array; the prefetcher
pulls whichever of them are persisted but not cached into the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.storage.base import StorageBackend
from repro.storage.cache import CachedStorage
from repro.world.coords import (
    CHUNK_SIZE,
    BlockPos,
    pack_chunk,
    packed_chunk_keys,
    packed_chunk_ring,
)

#: prefetch terrain this many blocks beyond the view distance
PREFETCH_MARGIN_BLOCKS = 48.0


@dataclass(frozen=True)
class DistancePrefetchPolicy:
    """Prefetch chunks within ``view_distance + prefetch_margin`` blocks of any avatar."""

    view_distance_blocks: float = 128.0
    prefetch_margin_blocks: float = PREFETCH_MARGIN_BLOCKS

    def candidates(self, avatar_positions: Iterable[BlockPos]) -> np.ndarray:
        """Every chunk worth having in the cache, packed, sorted and unique.

        This is the union of the avatars' *extended* rings.  An avatar's
        view ring lies inside its extended ring, so the union already holds
        every required chunk, and packed order is ``(cx, cz)`` order, so the
        array is the order in which the prefetcher visits it.
        """
        radius_blocks = float(self.view_distance_blocks) + float(self.prefetch_margin_blocks)
        parts = [
            pack_chunk(position.x // CHUNK_SIZE, position.z // CHUNK_SIZE)
            + packed_chunk_ring(position.x % CHUNK_SIZE, position.z % CHUNK_SIZE, radius_blocks)
            for position in avatar_positions
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))


class DistancePrefetcher:
    """Pulls a policy's candidates into a cache: the one prefetch loop.

    Only the candidate *set* is remembered between evaluations (the packed
    array with its key strings, rebuilt when the array differs).  What to
    fetch is decided afresh every time: a key missing from the remote store
    now can be persisted before the next evaluation, and a cached key can be
    evicted.
    """

    def __init__(
        self, policy: DistancePrefetchPolicy, cache: CachedStorage, remote: StorageBackend
    ) -> None:
        self.policy = policy
        self.cache = cache
        self.remote = remote
        self._packed = np.empty(0, dtype=np.int64)
        self._keys: list[str] = []

    def prefetch(self, avatar_positions: Iterable[BlockPos]) -> int:
        """Fetch every candidate that is persisted but not cached; returns how many."""
        packed = self.policy.candidates(avatar_positions)
        if not np.array_equal(packed, self._packed):
            self._packed = packed
            self._keys = packed_chunk_keys(packed)
        fetched = 0
        for key in self._keys:
            if self.cache.is_cached(key) or not self.remote.exists(key):
                continue
            self.cache.prefetch(key)
            fetched += 1
        return fetched
