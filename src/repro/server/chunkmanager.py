"""Chunk management: loading, generation, integration and eviction.

The chunk manager keeps the voxel world populated around the players.  Every
tick it:

1. moves the view of each player the game loop names in ``moved`` — the
   ones that joined or whose MOVE left its chunk; the loop sees every
   position change, so nobody else's view is looked at.  A view is its
   centre chunk: the required chunks are the owned part of the ring around
   it, and a move by ``(dcx, dcz)`` touches only the chunks that enter and
   leave the ring, from an offset list cached per step,
2. requests missing chunks — from persistent storage if they exist there,
   otherwise from the terrain provider (local worker threads for the
   baselines, serverless functions for Servo),
3. integrates chunks whose load/generation completed (bounded per tick, since
   integrating a chunk costs tick time); a position stays pending until its
   chunk is integrated, so each chunk is requested and integrated once,
4. periodically evicts chunks far outside every player's view, persisting
   dirty ones: one array pass over the loaded chunks per distinct centre.

It also produces the "distance to the closest missing terrain" metric of
Figure 10a.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain, compress, repeat
from operator import add, itemgetter
from typing import Callable, ContextManager, Optional, Sequence

import numpy as np

from repro.server.entities import Avatar, AvatarTable
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend, StorageOperation
from repro.world.chunk import Chunk
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos, block_to_chunk
from repro.world.serialization import ChunkFormatError, chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import TerrainGenerator
from repro.world.world import VoxelWorld

#: virtual milliseconds of on-server work to generate one default-world chunk
CHUNK_GENERATION_WORK_MS = 250.0
#: worker threads of a local terrain provider
LOCAL_GENERATION_WORKERS = 2
#: ready chunks integrated into the world per tick, at most
MAX_INTEGRATIONS_PER_TICK = 8
#: ticks between two eviction passes
EVICTION_INTERVAL_TICKS = 40
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


def _ring_reach(radius_chunks: int) -> int:
    """The largest ``dx² + dz²`` of an offset in the ring of ``radius_chunks``.

    On integers, ``dx² + dz² <= R² + R`` is exactly ``hypot(dx, dz) <= R + 0.5``,
    the footprint of :func:`_ring_offsets`.
    """
    return radius_chunks * radius_chunks + radius_chunks


@lru_cache(maxsize=4096)
def _ring_step(radius_chunks: int, dcx: int, dcz: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ring offsets ``o`` whose ``o + (dcx, dcz)`` lies outside the ring, as sorted columns.

    A view whose centre steps by ``(dcx, dcz)`` gains the chunks of these
    offsets around its new centre and loses those of ``(-dcx, -dcz)`` around
    its old one.  Returns the ``dx`` and the ``dz`` column, in
    :func:`_ring_offsets` order, which is sorted.  A step of ``2R + 1`` or
    more along an axis leaves the ring, so callers pass ``(2R + 1, 0)`` for
    every such step and the cache holds at most ``(4R + 1)² + 2`` steps per
    radius.
    """
    ring = _ring_offsets(radius_chunks)
    footprint = set(ring)
    outside = [(dx, dz) for dx, dz in ring if (dx + dcx, dz + dcz) not in footprint]
    return tuple(map(itemgetter(0), outside)), tuple(map(itemgetter(1), outside))


#: builds a ``ChunkPos`` from an ``(cx, cz)`` pair in C (``ChunkPos(...)`` enters a Python frame)
_CHUNK_POS = partial(tuple.__new__, ChunkPos)


@dataclass(frozen=True)
class GenerationResult:
    """Metadata describing how a chunk became available."""

    position: ChunkPos
    latency_ms: float
    source: str  # "local-generation", "faas-generation", or "storage"
    consumed_local_cpu: bool


#: what a terrain provider calls when a requested chunk is ready
ChunkCallback = Callable[[Chunk, GenerationResult], None]


@dataclass(frozen=True)
class OwnershipRegion:
    """A server's ownership region in a partitioned world: a strip of chunk columns.

    A single-server deployment owns everything (``region=None``); a cluster
    shard owns the chunks with ``min_cx <= cx < max_cx`` (``None`` leaves that
    side unbounded) and must never load, generate or tick chunks outside
    them.  The chunk manager filters every required-chunk computation by
    these bounds: a view's chunks are sorted by ``cx``, so the owned ones are
    one slice of them.
    """

    min_cx: Optional[int]
    max_cx: Optional[int]

    def contains(self, position: ChunkPos) -> bool:
        if self.min_cx is not None and position.cx < self.min_cx:
            return False
        if self.max_cx is not None and position.cx >= self.max_cx:
            return False
        return True


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

    A pool of ``LOCAL_GENERATION_WORKERS`` threads generates chunks; each
    chunk takes ``work_ms`` of virtual time (``CHUNK_GENERATION_WORK_MS``
    scaled by the generator's work units, with lognormal jitter), so the
    provider's throughput is about ``LOCAL_GENERATION_WORKERS / work_ms``
    chunks per millisecond.  This is the bottleneck that
    makes Opencraft unable to keep up with fast-moving players (Figure 10a),
    and completions interfere with the game loop (accounted by the cost
    model's ``per_local_generation_ms``).
    """

    def __init__(self, engine: SimulationEngine, generator: TerrainGenerator) -> None:
        self.engine = engine
        self.generator = generator
        self.work_ms = CHUNK_GENERATION_WORK_MS * generator.generation_work_units()
        self._worker_free_at_ms = [0.0] * LOCAL_GENERATION_WORKERS
        self._pending = 0
        self._rng = engine.rng("local-terrain")

    def request(self, position: ChunkPos, callback: ChunkCallback) -> None:
        now = self.engine.now_ms
        worker_index = min(
            range(LOCAL_GENERATION_WORKERS), key=lambda index: self._worker_free_at_ms[index]
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
        region: Optional[OwnershipRegion] = None,
    ) -> None:
        self.engine = engine
        self.world = world
        self.generator = generator
        self.provider = provider
        self.storage = storage
        self.view_distance_blocks = float(view_distance_blocks)
        self.region = region
        self._view_radius_chunks = int(math.ceil(self.view_distance_blocks / CHUNK_SIZE))
        #: a view step this long or longer along an axis leaves the ring (see _ring_step)
        self._step_limit = 2 * self._view_radius_chunks + 1
        self._keep_radius_chunks = int(
            math.ceil((self.view_distance_blocks + UNLOAD_MARGIN_BLOCKS) / CHUNK_SIZE)
        )
        self._view_reach = _ring_reach(self._view_radius_chunks)
        self._keep_reach = _ring_reach(self._keep_radius_chunks)
        self._pending: set[ChunkPos] = set()
        self._ready: list[_ReadyChunk] = []
        #: pin counts: how many protectors (e.g. constructs) pin each chunk
        self._protected: dict[ChunkPos, int] = {}
        #: each player's view centre: the chunk it stood in at its last refresh
        #: (its view is the owned part of the ring around it)
        self._player_views: dict[int, tuple[int, int]] = {}
        #: reference counts: how many players currently require each chunk
        self._chunk_refcounts: dict[ChunkPos, int] = {}
        #: required chunks that are not resident (maintained incrementally so
        #: the steady state — everything loaded — costs nothing per tick)
        self._unavailable: set[ChunkPos] = set()
        #: each player's centre at first sight: its client downloaded that
        #: view on joining, and clients cache terrain
        self._player_first_centre: dict[int, tuple[int, int]] = {}
        #: chunks streamed to each player since it joined
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
        except ChunkFormatError:
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

    def _owned_ring_part(self, center: tuple[int, int], dcx: int, dcz: int) -> list[ChunkPos]:
        """The owned chunks around ``center`` at the offsets of ``_ring_step(R, dcx, dcz)``, sorted.

        In-view chunks outside the ownership region are the neighbour shard's
        responsibility (a sharded deployment serves them to the client from
        their owner), so this shard neither loads them nor counts them
        against its view-range metric.
        """
        cx, cz = center
        dxs, dzs = _ring_step(self._view_radius_chunks, dcx, dcz)
        region = self.region
        if region is not None:
            # The offsets are sorted by dx: the owned ones are one slice.
            start = 0 if region.min_cx is None else bisect_left(dxs, region.min_cx - cx)
            stop = len(dxs) if region.max_cx is None else bisect_left(dxs, region.max_cx - cx)
            dxs, dzs = dxs[start:stop], dzs[start:stop]
        return list(map(_CHUNK_POS, zip(map(add, dxs, repeat(cx)), map(add, dzs, repeat(cz)))))

    def _owned_ring(self, center: tuple[int, int]) -> list[ChunkPos]:
        """The owned chunks of the view ring around ``center``, sorted."""
        # A step of 2R + 1 leaves the ring: every offset.
        return self._owned_ring_part(center, self._step_limit, 0)

    def _refresh_player_view(self, player_id: int, current_chunk: tuple[int, int]) -> None:
        """Move the player's view to the chunk it now stands in, by the chunks that enter and leave."""
        views = self._player_views
        old_center = views.get(player_id)
        if old_center == current_chunk:
            return  # listed twice, or it crossed and came back within one tick
        views[player_id] = current_chunk
        if old_center is None:
            entered = self._owned_ring(current_chunk)
            left: list[ChunkPos] = []
        else:
            limit = self._step_limit
            dcx = current_chunk[0] - old_center[0]
            dcz = current_chunk[1] - old_center[1]
            if not (-limit < dcx < limit and -limit < dcz < limit):  # disjoint rings
                dcx, dcz = limit, 0
            entered = self._owned_ring_part(current_chunk, dcx, dcz)
            left = self._owned_ring_part(old_center, -dcx, -dcz)
        refcounts = self._chunk_refcounts
        for position in entered:
            count = refcounts.get(position, 0)
            refcounts[position] = count + 1
            if count == 0 and not self.world.is_loaded(position):
                self._unavailable.add(position)
        for position in left:
            self._release_required(position)
        if old_center is not None:
            # A genuine boundary crossing (first sight is handled by the
            # subscription itself at connect time).
            for listener in self.center_listeners:
                listener(player_id, current_chunk)
        # Chunks that entered the view and were never sent to this client must
        # be streamed (a few per tick); clients cache terrain, so chunks sent
        # earlier are never re-sent.  The initial view download on connect is
        # not charged to the game loop: real servers push it from the join
        # screen, outside the latency-critical path.
        if old_center is None:
            self._player_first_centre[player_id] = current_chunk
            self._player_sent[player_id] = set()
            self._player_send_queue.setdefault(player_id, [])
            return
        first_cx, first_cz = self._player_first_centre[player_id]
        reach = self._view_reach
        sent = self._player_sent.setdefault(player_id, set())
        queue = self._player_send_queue.setdefault(player_id, [])
        queued = set(queue)
        for position in entered:
            if position in sent or position in queued:
                continue
            # Owned, like every entered chunk: downloaded on joining if in that ring.
            dx, dz = position[0] - first_cx, position[1] - first_cz
            if dx * dx + dz * dz > reach:
                queue.append(position)

    def forget_player(self, player_id: int) -> None:
        """Drop cached view state for a disconnected player."""
        self._player_first_centre.pop(player_id, None)
        self._player_sent.pop(player_id, None)
        self._player_send_queue.pop(player_id, None)
        center = self._player_views.pop(player_id, None)
        if center is None:
            return
        for position in self._owned_ring(center):
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

    def update(self, avatars: AvatarTable, moved: list[Avatar]) -> ChunkTickReport:
        """Run one tick of chunk management and report the work done.

        ``avatars`` is the table of every served avatar; ``moved`` names the
        avatars (bound to it) that joined or changed chunk since the last
        call; nobody else's view is looked at.
        """
        self._tick_counter += 1
        report = ChunkTickReport()

        # 1. Determine required chunks and request missing ones.  The
        # unavailable set is maintained incrementally, so in the steady state
        # (everything resident, nobody crossing) this step touches nothing.
        chunk_of = avatars.chunk_of
        for avatar in moved:
            self._refresh_player_view(avatar.player_id, chunk_of(avatar))
        if self._unavailable:
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
            to_integrate = self._ready[:MAX_INTEGRATIONS_PER_TICK]
            self._ready = self._ready[MAX_INTEGRATIONS_PER_TICK:]
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
        if avatars.avatars and self._tick_counter % EVICTION_INTERVAL_TICKS == 0:
            report.chunks_evicted = self._evict(avatars)

        # 5. View-range metric: distance to the closest missing required chunk.
        report.generation_backlog = self.provider.pending_count()
        report.min_view_range_blocks = self._view_range(avatars)
        return report

    def _evict(self, avatars: AvatarTable) -> int:
        """Unload every chunk that is not pinned and lies outside every avatar's keep ring.

        One array pass over the loaded chunks per distinct centre chunk, with
        no Python work per loaded chunk.  Chunks are evicted, and dirty ones
        written, in sorted order.
        """
        positions = self.world.loaded_chunk_positions
        loaded = np.fromiter(chain(*positions), np.int64)
        xs, zs = loaded[0::2], loaded[1::2]
        radius, reach = self._keep_radius_chunks, self._keep_reach
        kept = None
        for cx, cz in dict.fromkeys(avatars.chunks()):
            dx, dz = xs - cx, zs - cz
            # Inside the square first: there the squares cannot overflow int64.
            near = (
                (dx >= -radius) & (dx <= radius) & (dz >= -radius) & (dz <= radius)
                & (dx * dx + dz * dz <= reach)
            )
            kept = near if kept is None else kept | near
        protected = self._protected
        evicted = 0
        for position in compress(positions, ~kept):
            if position in protected:
                continue
            chunk = self.world.remove_chunk(position)
            if position in self._chunk_refcounts:
                self._unavailable.add(position)
            evicted += 1
            if chunk.dirty:
                self.storage.write(position.key(), chunk_to_bytes(chunk))
        return evicted

    def _view_range(self, avatars: AvatarTable) -> float:
        if not avatars.avatars or not self._unavailable:
            return self.view_distance_blocks
        # Broadcast avatars against unavailable chunk centres instead of a
        # Python double loop — this runs every tick while terrain is in flight.
        # A centre is (2c + 1) * 8 blocks: exact in int64 for every chunk of a
        # 64-bit position, and rounded once to float, as c * 16 + 8 would be.
        chunks = np.fromiter(chain(*self._unavailable), np.int64)
        centers = (2 * chunks + 1).astype(np.float64) * (CHUNK_SIZE / 2)
        avatars_x, avatars_z = avatars.horizontal()
        dx = avatars_x[:, None] - centers[None, 0::2]
        dz = avatars_z[:, None] - centers[None, 1::2]
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
