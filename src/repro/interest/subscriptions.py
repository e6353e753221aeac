"""Subscription bookkeeping: the chunk-to-subscriber index and flush logic.

The :class:`InterestMap` is the broadcast path's routing table.  Each
connected session holds one :class:`Subscription` covering the square of
chunks within ``radius_chunks`` (Chebyshev) of its avatar's chunk; the map
maintains the inverse index — chunk to its near-tier and far-tier subscribers
— incrementally, updated only when a player joins, leaves, migrates or crosses
a chunk boundary.  Routing costs O(1) per near-tier event plus O(near
subscribers) per dirty chunk per settle (near state is integer-only, so a
chunk's events are summed and scattered once), and O(far subscribers) per
far-tier event: ``far_drift`` is a float accumulated per subscriber in event
order against a threshold, so re-associating that sum could flip a flush.

Consistency follows the dyconit model.  A subscription's footprint splits
into two tiers by distance from its center: *near* chunks (within
``NEAR_RADIUS_CHUNKS``) flush every tick — players can perceive staleness
next to them; *far* chunks accumulate delta entries and flush only when an
error budget would otherwise be violated: entries older than
``MAX_STALENESS_TICKS`` ticks, or accumulated positional drift beyond
``MAX_DRIFT_BLOCKS`` blocks.  The staleness observed at every flush is
reported so runs can *prove* the bounds held.

Each dirty event is one delta entry, and entries are encoded on write: an
entry with at least one (non-source) subscriber is serialized once, whatever
the subscriber count — the cost model charges ``per_update_entry_ms`` per
encoded entry plus ``per_update_flush_ms`` per batch send, replacing the
``per_player_ms`` full fan-out.

The map is one of a server's two broadcast policies: it answers the same
calls as :class:`~repro.server.broadcast.FullFanout`, so the game loop never
asks which of the two it holds.

The map draws no randomness and iterates insertion-ordered dicts only, so
interest-enabled runs stay bit-deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Callable, Optional

from repro.net.batch import FAR_TIER, NEAR_TIER, BatchStream, UpdateBatch
from repro.sim.metrics import (
    CONSISTENCY_ERROR_HISTOGRAM,
    CONSISTENCY_ERROR_SERIES,
    metric_name,
)
from repro.world.coords import CHUNK_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.costmodel import TickWork
    from repro.server.gameloop import GameServer
    from repro.server.session import PlayerSession

ChunkKey = tuple[int, int]


NEAR, FAR = 0, 1  # positions of the two tiers in an index entry

#: chunks within this Chebyshev distance of a subscription's center are its
#: near tier: their updates flush every tick
NEAR_RADIUS_CHUNKS = 1
#: dyconit staleness budget: a far-tier batch is flushed before any of its
#: entries becomes older than this many ticks
MAX_STALENESS_TICKS = 5
#: dyconit numerical-error budget: accumulated positional drift (blocks) in
#: the far tier that forces a flush before the staleness budget expires
MAX_DRIFT_BLOCKS = 8.0


@lru_cache(maxsize=32)
def _tiered_offsets(radius_chunks: int) -> tuple[tuple[int, int, int], ...]:
    """Sorted ``(dx, dz, tier)`` within Chebyshev ``radius_chunks`` of the origin."""
    return tuple(
        (dx, dz, NEAR if max(abs(dx), abs(dz)) <= NEAR_RADIUS_CHUNKS else FAR)
        for dx in range(-radius_chunks, radius_chunks + 1)
        for dz in range(-radius_chunks, radius_chunks + 1)
    )


@dataclass(frozen=True)
class SubscriptionState:
    """The serializable part of a subscription (migration handoff payload)."""

    near_entries: int
    far_entries: int
    far_first_tick: Optional[int]
    far_drift: float


@dataclass
class Subscription:
    """One session's area-of-interest state."""

    player_id: int
    session: "PlayerSession"
    #: chunk coordinates of the subscription's center (the avatar's chunk)
    center: ChunkKey
    #: near-tier entries pending since this tick (flushed every tick)
    near_entries: int = 0
    #: far-tier entries accumulated since the last far flush
    far_entries: int = 0
    #: tick at which the oldest pending far entry was produced
    far_first_tick: Optional[int] = None
    #: positional drift (blocks) accumulated in the far tier since last flush
    far_drift: float = 0.0

    def export_state(self) -> SubscriptionState:
        return SubscriptionState(
            near_entries=self.near_entries,
            far_entries=self.far_entries,
            far_first_tick=self.far_first_tick,
            far_drift=self.far_drift,
        )


@dataclass
class FlushReport:
    """What one per-tick flush pass did (feeds the cost model and metrics)."""

    #: delta entries encoded this tick (each charged once, encode-on-write)
    entries_encoded: int = 0
    #: batch sends: near flushes plus due far flushes actually sent
    flushes: int = 0
    near_flushes: int = 0
    far_flushes: int = 0
    #: due far batches deferred by graceful degradation (budget widening)
    flushes_shed: int = 0
    #: largest staleness (ticks) observed across this tick's flushes
    staleness_max: int = 0
    #: largest accumulated drift (blocks) observed at a far flush
    drift_max: float = 0.0


class InterestMap:
    """Chunk-radius subscriptions with tiered, budget-bounded flushing."""

    def __init__(self, radius_chunks: int) -> None:
        if radius_chunks < 1:
            raise ValueError("an InterestMap needs a positive radius (0/None = full fan-out)")
        self.radius_chunks = int(radius_chunks)
        self._subs: dict[int, Subscription] = {}
        #: inverse index: chunk -> (near subscribers, far subscribers), each
        #: insertion-ordered by player id; a chunk nobody covers has no entry
        self._index: dict[
            ChunkKey, tuple[dict[int, Subscription], dict[int, Subscription]]
        ] = {}
        #: near-tier entries noted per chunk since the last settle.  A source
        #: that is a near subscriber of the chunk is debited its own entries
        #: when they are noted, so until ``_settle`` a subscription's
        #: ``near_entries`` is short by its share of this (even negative);
        #: every reader and every index mutation settles first
        self._pending_near: dict[ChunkKey, int] = {}
        #: entries encoded since the last flush (encode-on-write accounting)
        self._entries_encoded = 0
        #: the tick entries noted now belong to (advanced by ``flush``)
        self._tick = 0
        #: when True, every local dirty event is also appended to the dirty
        #: log for cross-shard routing (set by the cluster coordinator)
        self.record_dirty_log = False
        self._dirty_log: list[tuple[ChunkKey, float, Optional[int]]] = []
        #: optional sink receiving every flushed (sequence-stamped) batch;
        #: None keeps the hot path allocation-free
        self.batch_sink: Optional[Callable[[UpdateBatch], None]] = None
        self._batch_stream = BatchStream()
        #: the most recent flush's report (None before the first flush)
        self.last_flush: Optional[FlushReport] = None

    # -- shape -----------------------------------------------------------------------

    def subscription(self, player_id: int) -> Optional[Subscription]:
        """The player's subscription, current as of this call.

        Entries noted afterwards reach its ``near_entries`` only at the next
        call of this or any other reading or mutating method of the map.
        """
        self._settle()
        return self._subs.get(player_id)

    def has_subscribers(self, chunk: ChunkKey) -> bool:
        """True when at least one session subscribes to ``chunk``."""
        return chunk in self._index

    @staticmethod
    def chunk_of(position) -> ChunkKey:
        """The chunk key of a block position (matches the chunk manager's)."""
        return (position.x // CHUNK_SIZE, position.z // CHUNK_SIZE)

    def _footprint(self, center: ChunkKey) -> dict[ChunkKey, int]:
        """The chunks a subscription centered on ``center`` covers, sorted, with tiers."""
        cx, cz = center
        offsets = _tiered_offsets(self.radius_chunks)
        return {(cx + dx, cz + dz): tier for dx, dz, tier in offsets}

    def _index_add(self, chunk: ChunkKey, tier: int, sub: Subscription) -> None:
        tiers = self._index.get(chunk)
        if tiers is None:
            tiers = self._index[chunk] = ({}, {})
        tiers[tier][sub.player_id] = sub

    def _index_drop(self, chunk: ChunkKey, tier: int, player_id: int) -> None:
        tiers = self._index[chunk]
        del tiers[tier][player_id]
        if not tiers[NEAR] and not tiers[FAR]:
            del self._index[chunk]

    def _settle(self) -> None:
        """Scatter each pending chunk's near-tier total to its near subscribers."""
        pending = self._pending_near
        if not pending:
            return
        index = self._index
        for chunk, total in pending.items():
            for sub in index[chunk][NEAR].values():
                sub.near_entries += total
        pending.clear()

    # -- membership ------------------------------------------------------------------

    def subscribe(self, session: "PlayerSession") -> Subscription:
        """Register a session, centered on its avatar's current chunk."""
        player_id = session.player_id
        if player_id in self._subs:
            raise ValueError(f"player {player_id} is already subscribed")
        self._settle()
        sub = Subscription(
            player_id=player_id,
            session=session,
            center=self.chunk_of(session.avatar.position),
        )
        self._subs[player_id] = sub
        for chunk, tier in self._footprint(sub.center).items():
            self._index_add(chunk, tier, sub)
        return sub

    def unsubscribe(self, player_id: int) -> Optional[SubscriptionState]:
        """Drop a session's subscription; returns its pending state (or None)."""
        sub = self._subs.pop(player_id, None)
        if sub is None:
            return None
        self._settle()
        for chunk, tier in self._footprint(sub.center).items():
            self._index_drop(chunk, tier, player_id)
        return sub.export_state()

    def update_center(self, player_id: int, center: ChunkKey) -> None:
        """Move a subscription's footprint after a chunk-boundary crossing."""
        sub = self._subs.get(player_id)
        if sub is None or sub.center == center:
            return
        self._settle()
        old_footprint = self._footprint(sub.center)
        new_footprint = self._footprint(center)
        # Add before dropping, so a chunk that only changes tier keeps its entry.
        for chunk, tier in new_footprint.items():
            if old_footprint.get(chunk) != tier:
                self._index_add(chunk, tier, sub)
        for chunk, tier in old_footprint.items():
            if new_footprint.get(chunk) != tier:
                self._index_drop(chunk, tier, player_id)
        sub.center = center

    # -- migration handoff -----------------------------------------------------------

    def import_state(self, player_id: int, state: SubscriptionState) -> None:
        """Restore pending delta accounting onto a freshly subscribed player.

        The far tier's first-entry tick is clamped to this map's current tick
        so a handoff into a younger server (e.g. a respawned shard whose tick
        counter restarted) never produces negative staleness.
        """
        sub = self._subs.get(player_id)
        if sub is None:
            raise KeyError(f"player {player_id} is not subscribed")
        sub.near_entries += state.near_entries
        if state.far_entries:
            sub.far_entries += state.far_entries
            sub.far_drift += state.far_drift
            imported_first = (
                state.far_first_tick if state.far_first_tick is not None else self._tick
            )
            imported_first = min(imported_first, self._tick)
            sub.far_first_tick = (
                imported_first
                if sub.far_first_tick is None
                else min(sub.far_first_tick, imported_first)
            )

    def export_state(self, player_id: int) -> Optional[SubscriptionState]:
        self._settle()
        sub = self._subs.get(player_id)
        return sub.export_state() if sub is not None else None

    # -- dirty events ----------------------------------------------------------------

    def note_dirty(
        self,
        chunk: ChunkKey,
        drift: float = 0.0,
        source_player_id: Optional[int] = None,
    ) -> None:
        """Route a local dirty event, one delta entry, to the chunk's subscribers.

        The event is also appended to the dirty log when cross-shard routing
        is on — even with no local subscribers, since a neighbouring shard's
        players may subscribe to this chunk across the zone boundary.
        """
        if self.record_dirty_log:
            self._dirty_log.append((chunk, drift, source_player_id))
        self._route(chunk, drift, source_player_id)

    def note_external(
        self,
        chunk: ChunkKey,
        drift: float = 0.0,
        source_player_id: Optional[int] = None,
    ) -> None:
        """Route a dirty event relayed from another shard (never re-logged)."""
        self._route(chunk, drift, source_player_id)

    def drain_dirty_log(self) -> list[tuple[ChunkKey, float, Optional[int]]]:
        """Return and clear this tick's dirty events (cross-shard routing)."""
        events, self._dirty_log = self._dirty_log, []
        return events

    def _route(self, chunk: ChunkKey, drift: float, source_player_id: Optional[int]) -> None:
        tiers = self._index.get(chunk)
        if tiers is None:
            return
        near, far = tiers
        # A player needs no update about its own action.
        others = len(near) + len(far)
        if near:
            pending = self._pending_near
            pending[chunk] = pending.get(chunk, 0) + 1
            source = near.get(source_player_id)
            if source is not None:
                source.near_entries -= 1
                others -= 1
        if far:
            # Per event and in arrival order: far_drift is a float sum.
            tick = self._tick
            for sub in far.values():
                if sub.player_id == source_player_id:
                    others -= 1
                    continue
                sub.far_entries += 1
                sub.far_drift += drift
                if sub.far_first_tick is None:
                    sub.far_first_tick = tick
        if others:
            # Encode-on-write: the entry is serialized once and shared by
            # every subscriber's batch.
            self._entries_encoded += 1

    # -- the per-tick flush ----------------------------------------------------------

    def flush(
        self,
        tick_index: int,
        shed_far: Optional[Callable[[int], int]] = None,
    ) -> FlushReport:
        """Flush near tiers and budget-expired far tiers; report what was sent.

        ``shed_far`` is graceful degradation's hook: called with the number
        of *due* far batches, it returns how many to defer to a later tick
        (the least-stale ones are deferred first, widening their budgets
        instead of blacking anyone out).
        """
        self._settle()
        report = FlushReport()
        report.entries_encoded = self._entries_encoded
        self._entries_encoded = 0

        due_far: list[tuple[int, Subscription]] = []
        for sub in self._subs.values():
            if sub.near_entries:
                self._send(sub, NEAR_TIER, tick_index, tick_index, report)
                sub.near_entries = 0
            if sub.far_entries:
                staleness = tick_index - (
                    sub.far_first_tick if sub.far_first_tick is not None else tick_index
                )
                if staleness >= MAX_STALENESS_TICKS or sub.far_drift >= MAX_DRIFT_BLOCKS:
                    due_far.append((staleness, sub))

        shed = shed_far(len(due_far)) if shed_far is not None and due_far else 0
        if shed > 0:
            # Defer the least-stale batches: their budgets widen, while the
            # most overdue subscribers still get their flush.
            due_far.sort(key=lambda item: (item[0], item[1].far_drift, item[1].player_id))
            shed = min(shed, len(due_far))
            report.flushes_shed = shed
            due_far = due_far[shed:]

        for staleness, sub in due_far:
            report.drift_max = max(report.drift_max, sub.far_drift)
            first_tick = (
                sub.far_first_tick if sub.far_first_tick is not None else tick_index
            )
            self._send(sub, FAR_TIER, first_tick, tick_index, report)
            report.staleness_max = max(report.staleness_max, staleness)
            sub.far_entries = 0
            sub.far_first_tick = None
            sub.far_drift = 0.0

        self._tick = tick_index + 1
        self.last_flush = report
        return report

    def _send(
        self,
        sub: Subscription,
        tier: str,
        first_tick: int,
        flush_tick: int,
        report: FlushReport,
    ) -> None:
        report.flushes += 1
        if tier == NEAR_TIER:
            report.near_flushes += 1
        else:
            report.far_flushes += 1
        # updates_sent counts the flushes that really happened (full fan-out
        # derives it from its broadcast rounds instead).
        sub.session.record_updates(1)
        if self.batch_sink is not None:
            batch = self._batch_stream.stamp(
                UpdateBatch(
                    player_id=sub.player_id,
                    tier=tier,
                    entries=sub.near_entries if tier == NEAR_TIER else sub.far_entries,
                    first_tick=first_tick,
                    flush_tick=flush_tick,
                )
            )
            self.batch_sink(batch)

    # -- the broadcast policy --------------------------------------------------------
    # Calls go through self.note_dirty/self.flush so per-instance wrappers see them.

    def join(self, session: "PlayerSession") -> None:
        """Subscribe a session; its arrival is a visible change for nearby players."""
        self.subscribe(session)
        self.note_dirty(self.chunk_of(session.avatar.position), source_player_id=session.player_id)

    def leave(self, session: "PlayerSession") -> None:
        self.unsubscribe(session.player_id)
        self.note_dirty(self.chunk_of(session.avatar.position), source_player_id=session.player_id)

    def broadcast(self, server: "GameServer", work: "TickWork") -> None:
        """Flush this tick's zoned delta batches; graceful degradation defers far ones."""
        if work.construct_tick:
            # Every placed construct, stepped or quiescent, is one entry.
            for anchor in server.construct_anchors.values():
                self.note_dirty(anchor)
        degradation = server.degradation
        shed = None if degradation is None else partial(degradation.shed_count, unit="flushes")
        flush = self.flush(server.tick_index, shed_far=shed)
        work.players = 0
        work.update_entries_flushed = flush.entries_encoded
        work.update_flushes = flush.flushes

    def record(self, server: "GameServer", start_ms: float, duration_ms: float) -> None:
        """Emit the tick's flush metrics and trace event (after the tick's span)."""
        flush, metrics = self.last_flush, server.engine.metrics
        metrics.increment("interest_entries_flushed", flush.entries_encoded)
        metrics.increment("interest_flushes", flush.flushes)
        if flush.flushes_shed:
            metrics.increment("interest_flushes_shed", flush.flushes_shed)
        if not flush.flushes:
            return
        # consistency_error proves the dyconit bounds held: max staleness at flush.
        staleness = float(flush.staleness_max)
        metrics.histogram(metric_name(CONSISTENCY_ERROR_HISTOGRAM)).record(staleness)
        if server.region is not None:
            shard = metric_name(CONSISTENCY_ERROR_HISTOGRAM, shard=server.name)
            metrics.histogram(shard).record(staleness)
        metrics.series(CONSISTENCY_ERROR_SERIES).record(start_ms, staleness)
        telemetry = server.engine.telemetry
        if telemetry.enabled:
            telemetry.instant(
                "interest",
                "interest.flush",
                track=server.name,
                ts_ms=start_ms + duration_ms,
                args={
                    "entries": flush.entries_encoded,
                    "flushes": flush.flushes,
                    "near": flush.near_flushes,
                    "far": flush.far_flushes,
                    "shed": flush.flushes_shed,
                    "staleness_max": flush.staleness_max,
                },
            )

    # -- invariants (test support) ---------------------------------------------------

    def verify_index(self) -> bool:
        """True when the index matches a from-scratch recomputation, tiers included."""
        radius = self.radius_chunks
        rebuilt: dict[ChunkKey, tuple[set[int], set[int]]] = {}
        for sub in self._subs.values():
            cx, cz = sub.center
            for x in range(cx - radius, cx + radius + 1):
                for z in range(cz - radius, cz + radius + 1):
                    near = max(abs(x - cx), abs(z - cz)) <= NEAR_RADIUS_CHUNKS
                    tiers = rebuilt.setdefault((x, z), (set(), set()))
                    tiers[NEAR if near else FAR].add(sub.player_id)
        current = {
            chunk: (set(near), set(far)) for chunk, (near, far) in self._index.items()
        }
        return current == rebuilt
