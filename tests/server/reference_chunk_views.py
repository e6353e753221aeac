"""The chunk views and eviction as they were before views moved by ring deltas.

The executable spec of ``ChunkManager._refresh_player_view``,
``forget_player`` and ``_evict``.  Copied from
``src/repro/server/chunkmanager.py`` at commit bf787ca (only the class around
them, the docstrings and some comments differ): a player's view is the
ownership-filtered set of its centre's ring, built once per centre and
cached, and a crossing diffs the old set against the new one; an eviction
unions one keep ring per distinct centre and probes every loaded chunk
against it.

``test_chunk_views_differential.py`` runs a :class:`ReferenceChunkManager`
beside a production ``ChunkManager`` and requires the same reference counts,
unavailable set, send queues, evictions and storage writes after every tick.
Nothing under ``src/``, ``bench/``, ``benchmarks/`` or ``examples/`` imports
this module.
"""

from __future__ import annotations

from functools import lru_cache

from repro.server.chunkmanager import ChunkManager, _ring_offsets
from repro.server.entities import AvatarTable
from repro.world.coords import ChunkPos
from repro.world.serialization import chunk_to_bytes


@lru_cache(maxsize=8192)
def _ring_chunks(center_cx: int, center_cz: int, radius_chunks: int) -> frozenset[ChunkPos]:
    """The ring footprint translated to a center chunk, as a reusable frozenset."""
    return frozenset(
        ChunkPos(center_cx + dx, center_cz + dz)
        for dx, dz in _ring_offsets(radius_chunks)
    )


class ReferenceChunkManager(ChunkManager):
    """A ``ChunkManager`` whose views are cached chunk sets: ``(centre, required)`` per player."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per-center-chunk required set after ownership filtering
        self._required_cache: dict[tuple[int, int], frozenset[ChunkPos]] = {}

    def _required_for_center(self, center: tuple[int, int]) -> frozenset[ChunkPos]:
        """The ownership-filtered required set for a player centered on ``center``."""
        cached = self._required_cache.get(center)
        if cached is not None:
            return cached
        ring = _ring_chunks(center[0], center[1], self._view_radius_chunks)
        if self.region is not None:
            contains = self.region.contains
            ring = frozenset(position for position in ring if contains(position))
        self._required_cache[center] = ring
        return ring

    def _refresh_player_view(self, player_id: int, current_chunk: tuple[int, int]) -> None:
        """Move the player's required chunk set to the chunk it now stands in."""
        cached = self._player_views.get(player_id)
        if cached is not None and cached[0] == current_chunk:
            return  # listed twice, or it crossed and came back within one tick
        required = self._required_for_center(current_chunk)
        old_required = cached[1] if cached is not None else frozenset()
        entered = sorted(required - old_required)
        refcounts = self._chunk_refcounts
        for position in entered:
            count = refcounts.get(position, 0)
            refcounts[position] = count + 1
            if count == 0 and not self.world.is_loaded(position):
                self._unavailable.add(position)
        for position in sorted(old_required - required):
            self._release_required(position)
        self._player_views[player_id] = (current_chunk, required)
        if cached is not None:
            for listener in self.center_listeners:
                listener(player_id, current_chunk)
        if cached is None:
            self._player_sent[player_id] = set(required)
            self._player_send_queue.setdefault(player_id, [])
            return
        sent = self._player_sent.setdefault(player_id, set())
        queue = self._player_send_queue.setdefault(player_id, [])
        queued = set(queue)
        for position in entered:
            if position not in sent and position not in queued:
                queue.append(position)

    def forget_player(self, player_id: int) -> None:
        """Drop cached view state for a disconnected player."""
        self._player_sent.pop(player_id, None)
        self._player_send_queue.pop(player_id, None)
        cached = self._player_views.pop(player_id, None)
        if cached is None:
            return
        for position in cached[1]:
            self._release_required(position)

    def _evict(self, avatars: AvatarTable) -> int:
        keep: set[ChunkPos] = set(self._protected)
        # One ring per distinct centre: a crowd shares a handful of chunks.
        centres = dict.fromkeys(avatars.chunks())
        for cx, cz in centres:
            keep.update(_ring_chunks(cx, cz, self._keep_radius_chunks))
        evicted = 0
        for position in list(self.world.loaded_chunk_positions):
            if position in keep:
                continue
            chunk = self.world.remove_chunk(position)
            if position in self._chunk_refcounts:
                self._unavailable.add(position)
            evicted += 1
            if chunk.dirty:
                self.storage.write(position.key(), chunk_to_bytes(chunk))
        return evicted
