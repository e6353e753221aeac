"""Chunk management: loading, generation, integration and eviction.

The chunk manager keeps the voxel world populated around the players.  Every
tick it:

1. moves the required chunk set of each player the game loop names in
   ``moved`` — the ones that joined or whose MOVE left its chunk; the loop
   sees every position change, so nobody else's view is looked at,
2. requests missing chunks — from persistent storage if they exist there,
   otherwise from the terrain provider (local worker threads for the
   baselines, serverless functions for Servo),
3. integrates chunks whose load/generation completed (bounded per tick, since
   integrating a chunk costs tick time); a position stays pending until its
   chunk is integrated, so each chunk is requested and integrated once,
4. periodically evicts chunks far outside every player's view, persisting
   dirty ones.

It also produces the "distance to the closest missing terrain" metric of
Figure 10a.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, ContextManager, Optional, Sequence

import numpy as np

from repro.server.entities import Avatar
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend, StorageOperation
from repro.world.chunk import Chunk
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos, block_to_chunk
from repro.world.serialization import chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import TerrainGenerator
from repro.world.world import VoxelWorld

#: virtual milliseconds of on-server work to generate one default-world chunk
CHUNK_GENERATION_WORK_MS = 250.0
#: chunks stay loaded this many blocks beyond the view distance
UNLOAD_MARGIN_BLOCKS = 64.0
#: maximum chunks streamed to one player in one tick
STREAM_CAP_PER_PLAYER = 3


@lru_cache(maxsize=32)
def _ring_offsets(radius_chunks: int) -> tuple[tuple[int, int], ...]:
    """Chunk offsets within ``radius_chunks`` of the origin (circular footprint)."""
    offsets = []
    for dx in range(-radius_chunks, radius_chunks + 1):
        for dz in range(-radius_chunks, radius_chunks + 1):
            if math.hypot(dx, dz) <= radius_chunks + 0.5:
                offsets.append((dx, dz))
    return tuple(offsets)


@lru_cache(maxsize=8192)
def _ring_chunks(center_cx: int, center_cz: int, radius_chunks: int) -> frozenset[ChunkPos]:
    """The ring footprint translated to a center chunk, as a reusable frozenset.

    Frozensets carry their elements' hashes, so ``set.update`` on a cached
    ring skips re-hashing every ``ChunkPos`` — the dominant cost of building
    eviction keep-sets and per-player view sets from scratch each time.
    """
    return frozenset(
        ChunkPos(center_cx + dx, center_cz + dz)
        for dx, dz in _ring_offsets(radius_chunks)
    )


@dataclass(frozen=True)
class GenerationResult:
    """Metadata describing how a chunk became available."""

    position: ChunkPos
    latency_ms: float
    source: str  # "local-generation", "faas-generation", or "storage"
    consumed_local_cpu: bool


#: what a terrain provider calls when a requested chunk is ready
ChunkCallback = Callable[[Chunk, GenerationResult], None]


class OwnershipRegion:
    """Interface for a server's ownership region in a partitioned world.

    A single-server deployment owns everything (``region=None``); a cluster
    shard owns one zone and must never load, generate or tick chunks outside
    it — the chunk manager filters every required-chunk computation through
    this predicate.
    """

    def contains(self, position: ChunkPos) -> bool:
        raise NotImplementedError


class TerrainProvider:
    """Interface for components that produce newly generated chunks."""

    def request(self, position: ChunkPos, callback: ChunkCallback) -> None:
        """Start generating ``position``; ``callback`` fires in virtual time when done."""
        raise NotImplementedError

    def prepare(self, positions: Sequence[ChunkPos]) -> ContextManager[None]:
        """Context for requesting ``positions``; a provider may generate them ahead, stacked."""
        return nullcontext()

    def pending_count(self) -> int:
        raise NotImplementedError


class LocalTerrainProvider(TerrainProvider):
    """Terrain generation on the game server's own machine.

    A fixed pool of worker threads generates chunks sequentially; each chunk
    takes ``work_ms`` of virtual time, so the provider's throughput is
    ``workers / work_ms`` chunks per millisecond.  This is the bottleneck that
    makes Opencraft unable to keep up with fast-moving players (Figure 10a),
    and completions interfere with the game loop (accounted by the cost
    model's ``per_local_generation_ms``).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        generator: TerrainGenerator,
        workers: int = 2,
        work_ms: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("a local terrain provider needs at least one worker")
        self.engine = engine
        self.generator = generator
        self.workers = int(workers)
        self.work_ms = float(
            work_ms
            if work_ms is not None
            else CHUNK_GENERATION_WORK_MS * generator.generation_work_units()
        )
        self._worker_free_at_ms = [0.0] * self.workers
        self._pending = 0
        self._rng = engine.rng("local-terrain")

    def request(self, position: ChunkPos, callback: ChunkCallback) -> None:
        now = self.engine.now_ms
        worker_index = min(
            range(self.workers), key=lambda index: self._worker_free_at_ms[index]
        )
        start = max(now, self._worker_free_at_ms[worker_index])
        duration = self.work_ms * float(self._rng.lognormal(0.0, 0.15))
        finish = start + duration
        self._worker_free_at_ms[worker_index] = finish
        self._pending += 1
        result = GenerationResult(
            position=position,
            latency_ms=finish - now,
            source="local-generation",
            consumed_local_cpu=True,
        )
        self.engine.schedule_at(
            finish, partial(self._complete, result, callback), name=f"local-gen:{position.key()}"
        )

    def _complete(self, result: GenerationResult, callback: ChunkCallback) -> None:
        self._pending -= 1
        callback(self.generator.generate_chunk(result.position), result)

    def pending_count(self) -> int:
        return self._pending


@dataclass
class ChunkTickReport:
    """What the chunk manager did during one tick."""

    chunks_requested: int = 0
    chunks_integrated: int = 0
    local_generations_completed: int = 0
    chunks_streamed: int = 0
    chunks_evicted: int = 0
    #: chunk generations requested but not yet completed by the provider
    generation_backlog: int = 0
    #: minimum over players of the distance to the closest missing chunk (blocks)
    min_view_range_blocks: float = 0.0


@dataclass
class _ReadyChunk:
    chunk: Chunk
    result: GenerationResult


class ChunkManager:
    """Keeps the world loaded around the players.

    ``storage`` is the server's persistent store: a missing chunk is read
    from it when it holds the chunk's key, and dirty chunks are written back
    to it on eviction and by :meth:`persist_dirty`.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        world: VoxelWorld,
        generator: TerrainGenerator,
        provider: TerrainProvider,
        storage: StorageBackend,
        view_distance_blocks: float = 128.0,
        max_integrations_per_tick: int = 8,
        eviction_interval_ticks: int = 40,
        region: Optional[OwnershipRegion] = None,
    ) -> None:
        self.engine = engine
        self.world = world
        self.generator = generator
        self.provider = provider
        self.storage = storage
        self.view_distance_blocks = float(view_distance_blocks)
        self.max_integrations_per_tick = int(max_integrations_per_tick)
        self.eviction_interval_ticks = int(eviction_interval_ticks)
        self.region = region
        self._view_radius_chunks = int(math.ceil(self.view_distance_blocks / CHUNK_SIZE))
        self._keep_radius_chunks = int(
            math.ceil((self.view_distance_blocks + UNLOAD_MARGIN_BLOCKS) / CHUNK_SIZE)
        )
        self._pending: set[ChunkPos] = set()
        self._ready: list[_ReadyChunk] = []
        #: pin counts: how many protectors (e.g. constructs) pin each chunk
        self._protected: dict[ChunkPos, int] = {}
        #: per-player cached (chunk coordinates, required chunk set)
        self._player_views: dict[int, tuple[tuple[int, int], frozenset[ChunkPos]]] = {}
        #: reference counts: how many players currently require each chunk
        self._chunk_refcounts: dict[ChunkPos, int] = {}
        #: required chunks that are not resident (maintained incrementally so
        #: the steady state — everything loaded — costs nothing per tick)
        self._unavailable: set[ChunkPos] = set()
        #: per-center-chunk required set after ownership filtering (per shard)
        self._required_cache: dict[tuple[int, int], frozenset[ChunkPos]] = {}
        #: chunks already streamed to each player (clients cache terrain)
        self._player_sent: dict[int, set[ChunkPos]] = {}
        #: chunks queued for streaming to each player (sent a few per tick)
        self._player_send_queue: dict[int, list[ChunkPos]] = {}
        self._tick_counter = 0
        self.metrics = engine.metrics
        #: called with (player_id, new_center_chunk) whenever a player
        #: crosses a chunk boundary — the manager already detects crossings
        #: for its own view caches, so interest subscriptions piggyback on
        #: the same incremental signal instead of re-deriving it
        self.center_listeners: list[Callable[[int, tuple[int, int]], None]] = []

    # -- startup ---------------------------------------------------------------------

    def preload_area(self, center: BlockPos, radius_blocks: float) -> int:
        """Synchronously generate and load an area (used for spawn setup).

        Startup loading happens before players connect, so it bypasses the
        asynchronous pipeline and does not produce latency samples.
        """
        radius_chunks = int(math.ceil(radius_blocks / CHUNK_SIZE))
        center_chunk = block_to_chunk(center)
        positions = [
            position
            for dx, dz in _ring_offsets(radius_chunks)
            if self._owns(position := ChunkPos(center_chunk.cx + dx, center_chunk.cz + dz))
            and not self.world.is_loaded(position)
        ]
        for chunk in self.generator.generate_chunks(positions):
            self.world.add_chunk(chunk)
            self._unavailable.discard(chunk.position)
        return len(positions)

    def _owns(self, position: ChunkPos) -> bool:
        return self.region is None or self.region.contains(position)

    def protect(self, positions: list[ChunkPos]) -> None:
        """Pin chunks that must never be evicted (e.g. construct areas).

        Pins are reference-counted: protecting the same chunk twice (two
        overlapping constructs) requires two :meth:`unprotect` calls before
        the chunk becomes evictable again.
        """
        for position in positions:
            self._protected[position] = self._protected.get(position, 0) + 1

    @staticmethod
    def _decref(counts: dict[ChunkPos, int], position: ChunkPos) -> None:
        """Decrement a chunk's reference count, dropping the entry at zero."""
        count = counts.get(position, 0) - 1
        if count <= 0:
            counts.pop(position, None)
        else:
            counts[position] = count

    def unprotect(self, positions: list[ChunkPos]) -> None:
        """Release pins taken by :meth:`protect`; the last release unpins."""
        for position in positions:
            self._decref(self._protected, position)

    def _release_required(self, position: ChunkPos) -> None:
        """Drop one player's requirement on a chunk, untracking it at zero."""
        count = self._chunk_refcounts.get(position, 0) - 1
        if count <= 0:
            self._chunk_refcounts.pop(position, None)
            self._unavailable.discard(position)
        else:
            self._chunk_refcounts[position] = count

    @property
    def protected_chunks(self) -> set[ChunkPos]:
        """The chunks currently pinned against eviction."""
        return set(self._protected)

    # -- asynchronous completion ---------------------------------------------------------

    def _on_chunk_available(self, chunk: Chunk, result: GenerationResult) -> None:
        # The position stays pending until step 2 integrates it, so a chunk
        # waiting in the integration queue is never requested again.
        self._ready.append(_ReadyChunk(chunk=chunk, result=result))
        self.metrics.histogram("terrain_retrieval_ms").record(result.latency_ms)
        if result.source == "storage":
            self.metrics.increment("chunks_loaded_from_storage")
        else:
            self.metrics.increment("chunks_generated")

    def _request_chunk(self, position: ChunkPos, stored: bool) -> None:
        """Load ``position`` from storage when ``stored``, else have the provider generate it."""
        self._pending.add(position)
        if stored:
            key = position.key()
            operation = self.storage.read(key)
            self.engine.schedule_at(
                self.engine.now_ms + operation.latency_ms,
                partial(self._on_chunk_loaded, position, operation),
                name=f"storage-load:{key}",
            )
        else:
            self.provider.request(position, self._on_chunk_available)

    def _on_chunk_loaded(self, position: ChunkPos, operation: StorageOperation) -> None:
        try:
            chunk = chunk_from_bytes(operation.data or b"")
        except Exception:
            # A corrupt stored chunk falls back to regeneration.
            self.provider.request(position, self._on_chunk_available)
            return
        self._on_chunk_available(
            chunk,
            GenerationResult(
                position=position,
                latency_ms=operation.latency_ms,
                source="storage",
                consumed_local_cpu=False,
            ),
        )

    # -- per-tick update -------------------------------------------------------------------

    def _required_for_center(self, center: tuple[int, int]) -> frozenset[ChunkPos]:
        """The ownership-filtered required set for a player centered on ``center``.

        Players repeatedly revisit the same center chunks, so the filtered
        set is cached per shard (the ownership region never changes after
        construction).
        """
        cached = self._required_cache.get(center)
        if cached is not None:
            return cached
        ring = _ring_chunks(center[0], center[1], self._view_radius_chunks)
        # In-view chunks outside the ownership region are the neighbor
        # shard's responsibility (a sharded deployment serves them to the
        # client from their owner), so this shard neither loads them nor
        # counts them against its view-range metric.
        if self.region is not None:
            contains = self.region.contains
            ring = frozenset(position for position in ring if contains(position))
        self._required_cache[center] = ring
        return ring

    def _refresh_player_view(self, avatar: Avatar) -> None:
        """Move the avatar's required chunk set to the chunk it now stands in."""
        position = avatar.position
        current_chunk = (position.x // CHUNK_SIZE, position.z // CHUNK_SIZE)
        cached = self._player_views.get(avatar.player_id)
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
        self._player_views[avatar.player_id] = (current_chunk, required)
        if cached is not None:
            # A genuine boundary crossing (first sight is handled by the
            # subscription itself at connect time).
            for listener in self.center_listeners:
                listener(avatar.player_id, current_chunk)
        # Chunks that entered the view and were never sent to this client must
        # be streamed (a few per tick); clients cache terrain, so chunks sent
        # earlier are never re-sent.  The initial view download on connect is
        # not charged to the game loop: real servers push it from the join
        # screen, outside the latency-critical path.
        if cached is None:
            self._player_sent[avatar.player_id] = set(required)
            self._player_send_queue.setdefault(avatar.player_id, [])
            return
        sent = self._player_sent.setdefault(avatar.player_id, set())
        queue = self._player_send_queue.setdefault(avatar.player_id, [])
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

    def _stream_to_players(self) -> int:
        """Send queued, loaded chunks to clients (a few per player per tick)."""
        streamed = 0
        for player_id, queue in self._player_send_queue.items():
            if not queue:
                continue
            sent = self._player_sent.setdefault(player_id, set())
            remaining: list[ChunkPos] = []
            budget = STREAM_CAP_PER_PLAYER
            for position in queue:
                if budget > 0 and self.world.is_loaded(position):
                    sent.add(position)
                    streamed += 1
                    budget -= 1
                else:
                    remaining.append(position)
            self._player_send_queue[player_id] = remaining
        return streamed

    def update(self, avatars: list[Avatar], moved: list[Avatar]) -> ChunkTickReport:
        """Run one tick of chunk management and report the work done.

        ``moved`` names the avatars (of ``avatars``) that joined or changed
        chunk since the last call; nobody else's view is looked at.
        """
        self._tick_counter += 1
        report = ChunkTickReport()

        # 1. Determine required chunks and request missing ones.  The
        # unavailable set is maintained incrementally, so in the steady state
        # (everything resident, nobody crossing) this step touches nothing.
        for avatar in moved:
            self._refresh_player_view(avatar)
        if self._unavailable:
            # Prune entries loaded outside the integration path (preloads).
            is_loaded = self.world.is_loaded
            self._unavailable = {p for p in self._unavailable if not is_loaded(p)}
            missing = sorted(self._unavailable - self._pending)
            # One storage probe per position decides both the generation
            # batch and the request.
            exists = self.storage.exists
            stored = [exists(position.key()) for position in missing]
            with self.provider.prepare(
                [position for position, hit in zip(missing, stored) if not hit]
            ):
                for position, hit in zip(missing, stored):
                    self._request_chunk(position, hit)
            report.chunks_requested = len(missing)

        # 2. Integrate ready chunks (bounded per tick).
        if self._ready:
            to_integrate = self._ready[: self.max_integrations_per_tick]
            self._ready = self._ready[self.max_integrations_per_tick:]
            for ready in to_integrate:
                position = ready.chunk.position
                self._pending.discard(position)
                if self.world.is_loaded(position):
                    continue  # loaded meanwhile (a preload): nothing to integrate
                self.world.add_chunk(ready.chunk)
                self._unavailable.discard(position)
                report.chunks_integrated += 1
                if ready.result.consumed_local_cpu:
                    report.local_generations_completed += 1

        # 3. Stream newly visible terrain to clients.
        report.chunks_streamed = self._stream_to_players()

        # 4. Periodic eviction of chunks far outside every player's view.
        if avatars and self._tick_counter % self.eviction_interval_ticks == 0:
            report.chunks_evicted = self._evict(avatars)

        # 5. View-range metric: distance to the closest missing required chunk.
        report.generation_backlog = self.provider.pending_count()
        report.min_view_range_blocks = self._view_range(avatars)
        return report

    def _evict(self, avatars: list[Avatar]) -> int:
        keep: set[ChunkPos] = set(self._protected)
        # One ring per distinct centre: a crowd shares a handful of chunks.
        centres = dict.fromkeys(
            (avatar.position.x // CHUNK_SIZE, avatar.position.z // CHUNK_SIZE)
            for avatar in avatars
        )
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

    def _view_range(self, avatars: list[Avatar]) -> float:
        if not avatars or not self._unavailable:
            return self.view_distance_blocks
        # Broadcast avatars against unavailable chunk centers instead of a
        # Python double loop — this runs every tick while terrain is in flight.
        unavailable = sorted(self._unavailable)
        centers_x = np.fromiter(
            (pos.cx * CHUNK_SIZE + 8 for pos in unavailable),
            dtype=np.float64,
            count=len(unavailable),
        )
        centers_z = np.fromiter(
            (pos.cz * CHUNK_SIZE + 8 for pos in unavailable),
            dtype=np.float64,
            count=len(unavailable),
        )
        avatars_x = np.fromiter(
            (avatar.position.x for avatar in avatars), dtype=np.float64, count=len(avatars)
        )
        avatars_z = np.fromiter(
            (avatar.position.z for avatar in avatars), dtype=np.float64, count=len(avatars)
        )
        dx = avatars_x[:, None] - centers_x[None, :]
        dz = avatars_z[:, None] - centers_z[None, :]
        closest = math.sqrt(float((dx * dx + dz * dz).min()))
        return min(self.view_distance_blocks, closest)

    # -- persistence --------------------------------------------------------------------

    def persist_dirty(self) -> int:
        """Write every dirty loaded chunk to storage (periodic write-back)."""
        written = 0
        for chunk in self.world.dirty_chunks():
            self.storage.write(chunk.position.key(), chunk_to_bytes(chunk))
            chunk.dirty = False
            written += 1
        return written

    @property
    def pending_chunks(self) -> int:
        return len(self._pending)
