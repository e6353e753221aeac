"""Cluster coordination: lockstep shard ticking and player migration.

A :class:`ClusterCoordinator` owns N :class:`~repro.server.GameServer` shards
that share one :class:`~repro.sim.SimulationEngine` (and, for Servo, one FaaS
platform and blob store).  It presents the same driving surface as a single
server — ``connect_player``, ``place_construct``, ``run_for_seconds``,
``tick_records`` — so workloads and scenarios address the cluster exactly as
they address one server.  A player has one :class:`PlayerSession` for its
whole life; which shard serves it is recorded in :attr:`ClusterCoordinator.home`,
and a handoff moves that same session object from shard to shard, so a
client holding it never observes the migration.

Each cluster *round* ticks every shard at the same virtual start time and
then advances the shared clock once by the slowest shard's duration: the
cluster runs in lockstep and the round duration is the cluster's effective
tick time.  After the shards tick, avatars that crossed a zone boundary are
handed off to the owning shard: the session state is serialized through the
shared session store (write on the source, read on the target), the measured
storage latencies are recorded in the ``migration_ms`` histogram, and the
target adopts the session the source released, queued messages included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import ShardKill
from repro.cluster.partition import WorldPartitioner
from repro.constructs.circuit import ConstructIds, SimulatedConstruct
from repro.server.config import GameConfig
from repro.server.gameloop import GameServer, TickLoop, TickRecord
from repro.server.session import PlayerSession, restore_avatar_state, snapshot_session
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend
from repro.world.coords import BlockPos

#: every Nth connecting player spawns near a zone boundary; the bounded-area
#: workloads then wander across it, exercising migration
BOUNDARY_SPAWN_EVERY = 4


@dataclass(frozen=True)
class ShardRecoveryRecord:
    """One completed shard crash-recovery cycle (kill through respawn)."""

    shard_index: int
    respawned_ms: float
    #: rounds the zone was down — the recovery's MTTR, in ticks
    downtime_rounds: int
    sessions_recovered: int
    sessions_lost: int
    #: queued-but-unprocessed client messages that died with the shard
    messages_lost: int
    constructs_recovered: int
    #: player-ticks not served while the zone was down
    lost_player_ticks: int


@dataclass
class _DeadShard:
    """Book-keeping for a killed shard awaiting respawn."""

    kill: "ShardKill"
    killed_round: int
    killed_ms: float
    lost_player_ticks: int = field(default=0)


@dataclass(frozen=True)
class MigrationRecord:
    """One completed player handoff between shards."""

    round_index: int
    time_ms: float
    player_id: int
    from_shard: int
    to_shard: int
    latency_ms: float


class ClusterChunks:
    """Chunk-management facade so scenarios can preload a cluster's world."""

    def __init__(self, coordinator: "ClusterCoordinator") -> None:
        self._coordinator = coordinator

    def preload_area(self, center: BlockPos, radius_blocks: float) -> int:
        """Preload ``radius_blocks`` around every spawn point, per owning shard.

        Each shard's chunk manager filters the area through its ownership
        region, so a chunk is generated exactly once, by its owner.
        """
        loaded = 0
        points = [center] + self._coordinator.spawn_points()
        for shard in self._coordinator.shards:
            for point in points:
                loaded += shard.chunks.preload_area(point, radius_blocks)
        return loaded


class ClusterCoordinator(TickLoop):
    """Drives a zone-partitioned multi-server world in virtual-time lockstep."""

    def __init__(
        self,
        engine: SimulationEngine,
        shards: list[GameServer],
        partitioner: WorldPartitioner,
        config: GameConfig,
        session_store: StorageBackend,
        shard_factory: Callable[[int, int], GameServer],
        name: str = "cluster",
    ) -> None:
        if len(shards) != partitioner.shard_count:
            raise ValueError(
                f"partitioner defines {partitioner.shard_count} zones "
                f"but {len(shards)} shards were provided"
            )
        self.engine = engine
        self.shards = shards
        self.partitioner = partitioner
        self.config = config
        self.session_store = session_store
        self.name = name
        #: every player ever connected, disconnected ones included
        self.sessions: dict[int, PlayerSession] = {}
        #: the shard slot serving (or that last served) each player
        self.home: dict[int, int] = {}
        self.tick_records: list[TickRecord] = []
        self.migration_records: list[MigrationRecord] = []
        self.chunks = ClusterChunks(self)
        self.round_index = 0
        self._players_connected = 0
        self._round_robin = 0
        self._construct_homes: dict[int, int] = {}
        #: numbers constructs before routing them, so ids are unique cluster-wide
        self._numbering = ConstructIds()
        #: builds the replacement shard for (zone, generation) after a crash
        self.shard_factory = shard_factory
        #: supplies scheduled shard kills and wires the respawned shards; set by a fault plan
        self.fault_injector: Optional["FaultInjector"] = None
        self._dead: dict[int, _DeadShard] = {}
        self._generations: dict[int, int] = {}
        self.recovery_records: list[ShardRecoveryRecord] = []
        # Shards log their dirty events so the coordinator can relay edits
        # near zone boundaries to the shards whose players subscribe to those
        # chunks from across the boundary (full fan-out logs nothing).
        for shard in shards:
            shard.broadcast.record_dirty_log = len(shards) > 1

    # -- cluster shape ---------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def player_count(self) -> int:
        return sum(shard.player_count for shard in self.shards)

    def spawn_points(self) -> list[BlockPos]:
        """Every spawn position the coordinator hands out (for preloading)."""
        base = self.config.spawn_position
        points = [
            self.partitioner.zone_spawn(zone, base) for zone in range(self.shard_count)
        ]
        points.extend(
            self.partitioner.boundary_spawn(index, base)
            for index in range(self.partitioner.boundary_count())
        )
        return points

    # -- player lifecycle ------------------------------------------------------------

    def _next_spawn(self) -> tuple[int, Optional[BlockPos]]:
        index = self._players_connected
        base = self.config.spawn_position
        if self.shard_count == 1:
            return 0, None
        if (index + 1) % BOUNDARY_SPAWN_EVERY == 0:
            boundary = (index // BOUNDARY_SPAWN_EVERY) % self.partitioner.boundary_count()
            position = self.partitioner.boundary_spawn(boundary, base)
            return self.partitioner.zone_of_block(position), position
        zone = self._round_robin % self.shard_count
        self._round_robin += 1
        return zone, self.partitioner.zone_spawn(zone, base)

    def _shard_alive(self, zone: int) -> bool:
        return zone not in self._dead

    def _sessions_on(self, slot: int) -> list[PlayerSession]:
        """The connected players whose home is ``slot`` (alive or down), in connect order."""
        home = self.home
        return [
            s for s in self.sessions.values() if not s.disconnected and home[s.player_id] == slot
        ]

    def _next_alive_zone(self, zone: int) -> int:
        """The first alive zone at or after ``zone`` (wrapping)."""
        for offset in range(self.shard_count):
            candidate = (zone + offset) % self.shard_count
            if self._shard_alive(candidate):
                return candidate
        raise RuntimeError("every shard of the cluster is down")

    def connect_player(self, name: str | None = None) -> PlayerSession:
        """Connect a player to the shard owning its (spread) spawn position.

        While a zone's shard is down, players bound for it spawn on the next
        alive zone instead (they migrate home once the zone respawns).
        """
        zone, position = self._next_spawn()
        self._players_connected += 1
        if not self._shard_alive(zone):
            zone = self._next_alive_zone(zone)
            position = self.partitioner.zone_spawn(zone, self.config.spawn_position)
        session = self.shards[zone].connect_player(name, position=position)
        self.sessions[session.player_id] = session
        self.home[session.player_id] = zone
        return session

    def disconnect_player(self, player_id: int) -> None:
        session = self.sessions.get(player_id)
        if session is None or session.disconnected:
            raise KeyError(f"no connected player with id {player_id}")
        self.shards[self.home[player_id]].disconnect_player(player_id)

    # -- constructs ------------------------------------------------------------------

    def place_construct(self, construct: SimulatedConstruct) -> None:
        """Route a construct to the shard owning its anchor (minimum) cell."""
        self._numbering.number(construct)
        zone = self.partitioner.zone_of_block(construct.positions[0])
        self._construct_homes[construct.construct_id] = zone
        self.shards[zone].place_construct(construct)

    # -- migration -------------------------------------------------------------------

    def _store_round_trip(self, session: PlayerSession) -> tuple[bytes, float]:
        """Write a snapshot to the session store; the bytes read back, and the latency."""
        state = snapshot_session(session)
        key = f"session_{session.name}"
        write_op = self.session_store.write(key, state)
        read_op = self.session_store.read(key)
        return read_op.data or state, write_op.latency_ms + read_op.latency_ms

    def _migrate(self, session: PlayerSession, target_zone: int) -> None:
        if session.disconnected:
            # The player disconnected under the migration's feet (e.g. between
            # rounds); migrating a dead session would resurrect it on the
            # target shard.
            return
        player_id = session.player_id
        source_zone = self.home[player_id]
        source, target = self.shards[source_zone], self.shards[target_zone]
        # Handoff: serialize through the shared session store; the write on
        # the source and the read on the target are the migration's latency.
        state, latency_ms = self._store_round_trip(session)
        # Pending interest deltas travel with the player: export before the
        # source unsubscribes, import after the target re-subscribes, so a
        # far-tier budget already half-spent stays spent across the handoff.
        broadcast_state = source.broadcast.export_state(player_id)
        target.adopt(source.release(player_id))
        restore_avatar_state(session.avatar, state, restore_position=False)
        target.broadcast.import_state(player_id, broadcast_state)
        self.home[player_id] = target_zone

        record = MigrationRecord(
            round_index=self.round_index,
            time_ms=self.engine.now_ms,
            player_id=player_id,
            from_shard=source_zone,
            to_shard=target_zone,
            latency_ms=latency_ms,
        )
        self.migration_records.append(record)
        metrics = self.engine.metrics
        metrics.histogram("migration_ms").record(latency_ms)
        metrics.increment("migrations")
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.span(
                "migration",
                f"migrate:{session.name}",
                start_ms=record.time_ms,
                duration_ms=latency_ms,
                track="migrations",
                args={
                    "player_id": record.player_id,
                    "from_shard": record.from_shard,
                    "to_shard": record.to_shard,
                    "round": record.round_index,
                },
            )

    def _migrate_crossed_players(self) -> None:
        for session in self.sessions.values():
            home = self.home[session.player_id]
            if session.disconnected or not self._shard_alive(home):
                continue
            avatar = session.avatar
            target_zone = self.partitioner.zone_of_cx(avatar.table.chunk_of(avatar)[0])
            if target_zone != home:
                if not self._shard_alive(target_zone):
                    # The owning shard is down: the player stays where it is
                    # and the handoff is retried once the zone respawns.
                    self.engine.metrics.increment("migrations_deferred")
                    continue
                self._migrate(session, target_zone)

    def _route_cross_shard_updates(self) -> None:
        """Relay this round's dirty events to subscribers on other shards.

        Interest makes cross-shard traffic *selective*: an edit is relayed to
        a neighbouring shard only when at least one of that shard's players
        actually subscribes to the edited chunk — shards with no interested
        player never hear about it.  Relayed events land after the target
        shard's flush, so they are flushed next round (one round of relay
        latency, identical for every same-seed run).
        """
        events_relayed = 0
        for slot, shard in enumerate(self.shards):
            if slot in self._dead:
                continue
            # Relaying never changes an index, so which shards subscribe to a
            # chunk is decided once per chunk, not once per event.
            subscribed: dict[tuple[int, int], list] = {}
            for chunk, drift, source_player_id in shard.broadcast.drain_dirty_log():
                targets = subscribed.get(chunk)
                if targets is None:
                    targets = subscribed[chunk] = [
                        other.broadcast
                        for other_slot, other in enumerate(self.shards)
                        if other_slot != slot
                        and other_slot not in self._dead
                        and other.broadcast.has_subscribers(chunk)
                    ]
                for broadcast in targets:
                    broadcast.note_external(chunk, drift, source_player_id)
                events_relayed += len(targets)
        if events_relayed:
            self.engine.metrics.increment("interest_cross_shard_events", events_relayed)

    # -- shard crash-recovery --------------------------------------------------------

    def _apply_shard_faults(self) -> None:
        """Apply due respawns, then due kills (polled at round boundaries).

        Kills never fire mid-round: a shard dies *between* rounds, exactly at
        a virtual round boundary, which keeps two same-seed runs' fault
        timelines identical.
        """
        now_ms = self.engine.now_ms
        for slot, dead in sorted(self._dead.items()):
            if now_ms >= dead.killed_ms + dead.kill.respawn_after_ms:
                self._respawn_shard(slot, dead)
        for kill in self.fault_injector.shard_kills_due(now_ms):
            self._kill_shard(kill)

    def _kill_shard(self, kill: "ShardKill") -> None:
        slot = kill.shard
        injector = self.fault_injector
        if slot >= self.shard_count or slot in self._dead:
            injector.record("shard.kill.ignored", f"shard={slot} reason=unknown-or-dead")
            return
        if len(self._dead) + 1 >= self.shard_count:
            # Refusing to kill the last alive shard keeps the cluster able to
            # serve (and eventually recover) its players.
            injector.record("shard.kill.ignored", f"shard={slot} reason=last-alive")
            return
        shard = self.shards[slot]
        self._dead[slot] = _DeadShard(
            kill=kill,
            killed_round=self.round_index,
            killed_ms=self.engine.now_ms,
        )
        self.engine.metrics.increment("shard_kills")
        injector.record("shard.kill", f"shard={slot} name={shard.name}")

    def _respawn_shard(self, slot: int, dead: _DeadShard) -> None:
        """Bring up a replacement shard and evacuate the dead one into it.

        Every session stranded on the dead shard is recovered through the
        same snapshot/restore protocol an ordinary cross-shard migration
        uses: serialize the session, round-trip it through the shared session
        store, have the replacement adopt it, restore the avatar state.  The
        zone's constructs are re-registered on the replacement (their state
        survives in the shared world/blob state); queued-but-unprocessed
        client messages died with the shard and are counted as lost.
        """
        del self._dead[slot]
        generation = self._generations[slot] = self._generations.get(slot, 0) + 1
        old = self.shards[slot]
        replacement = self.shard_factory(slot, generation)
        self.fault_injector.wire(replacement)
        replacement.broadcast.record_dirty_log = True
        self.shards[slot] = replacement

        constructs = old.constructs.constructs()
        for construct in constructs:
            replacement.place_construct(construct)

        stranded = self._sessions_on(slot)
        messages_lost = 0
        for session in stranded:
            messages_lost += len(session.drain())
            session.detach_broadcast_clock()
            old.avatars.unbind(session.avatar)
            state, _ = self._store_round_trip(session)
            replacement.adopt(session)
            restore_avatar_state(session.avatar, state, restore_position=False)
        recovered = len(stranded)

        downtime_rounds = self.round_index - dead.killed_round
        record = ShardRecoveryRecord(
            shard_index=slot,
            respawned_ms=self.engine.now_ms,
            downtime_rounds=downtime_rounds,
            sessions_recovered=recovered,
            sessions_lost=0,
            messages_lost=messages_lost,
            constructs_recovered=len(constructs),
            lost_player_ticks=dead.lost_player_ticks,
        )
        self.recovery_records.append(record)
        metrics = self.engine.metrics
        metrics.histogram("shard_mttr_ticks").record(downtime_rounds)
        metrics.increment("shards_recovered")
        metrics.increment("sessions_recovered", recovered)
        if messages_lost:
            metrics.increment("shard_messages_lost", messages_lost)
        if dead.lost_player_ticks:
            metrics.increment("lost_player_ticks", dead.lost_player_ticks)
        self.fault_injector.record(
            "shard.respawn",
            f"shard={slot} name={replacement.name} sessions={recovered} "
            f"mttr_ticks={downtime_rounds}",
        )

    # -- the lockstep round ----------------------------------------------------------

    def tick(self) -> TickRecord:
        """Execute one cluster round: tick every shard, migrate, advance once.

        Shards tick strictly in shard order, each in full before the next
        begins: they share named RNG streams (platform, blob, disk, terrain
        latency), so interleaving shards would reorder draws and change
        virtual results.
        """
        telemetry = self.engine.telemetry
        if telemetry.enabled and telemetry.profiler is not None:
            with telemetry.profile("cluster.round"):
                return self._tick_round()
        return self._tick_round()

    def _tick_round(self) -> TickRecord:
        if self.fault_injector is not None:
            self._apply_shard_faults()
        start_ms = self.engine.now_ms
        shard_records = []
        for slot, shard in enumerate(self.shards):
            dead = self._dead.get(slot)
            if dead is not None:
                # A dead zone serves nobody this round; its stranded players'
                # unserved ticks are the outage's lost player-ticks.
                dead.lost_player_ticks += len(self._sessions_on(slot))
                continue
            shard_records.append(
                shard.tick_finish(shard.tick_begin(), advance_clock=False)
            )
        self._route_cross_shard_updates()
        self._migrate_crossed_players()

        if shard_records:
            duration_ms = max(record.duration_ms for record in shard_records)
        else:  # pragma: no cover - kills never take the last alive shard
            duration_ms = self.config.tick_interval_ms
        record = TickRecord(
            index=self.round_index,
            start_ms=start_ms,
            duration_ms=duration_ms,
            players=sum(r.players for r in shard_records),
            constructs=sum(r.constructs for r in shard_records),
            chunks_integrated=sum(r.chunks_integrated for r in shard_records),
            view_range_blocks=min(
                (r.view_range_blocks for r in shard_records), default=0.0
            ),
        )
        self.tick_records.append(record)
        self.engine.metrics.histogram("cluster_round_ms").record(duration_ms)
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            # The shard whose tick bounded the round: the first with the longest tick.
            bounding_shard = max(shard_records, key=lambda r: r.duration_ms).shard
            telemetry.span(
                "round",
                "round",
                start_ms=start_ms,
                duration_ms=duration_ms,
                track=self.name,
                args={
                    "index": record.index,
                    "players": record.players,
                    "shards_alive": len(shard_records),
                    "bounding_shard": bounding_shard,
                },
            )
        self.round_index += 1

        # Lockstep: the cluster's next round starts when the slowest shard is
        # done (or after the tick budget, whichever is later).
        self.engine.advance_to(start_ms + max(self.config.tick_interval_ms, duration_ms))
        return record
