"""The 20 Hz game loop.

Each tick the server processes client messages, updates chunk management,
advances construct simulation through the configured backend, and records the
tick's virtual duration (from the cost model) in a tick record, appended once
to the engine's metrics tick log.  The virtual clock then advances by
``max(tick interval, tick duration)``: a server that blows its 50 ms budget
starts the next tick late, exactly like a real game server under overload.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.constructs.circuit import SimulatedConstruct
from repro.interest import InterestMap
from repro.net.message import Message, MessageKind
from repro.server.broadcast import FullFanout, broadcast_policy
from repro.server.chunkmanager import (
    ChunkManager,
    ChunkTickReport,
    LocalTerrainProvider,
    OwnershipRegion,
    TerrainProvider,
)
from repro.server.config import WORLD_SEED, GameConfig
from repro.server.costmodel import TickCostModel, TickWork
from repro.server.entities import Avatar
from repro.server.sc_engine import ConstructBackend, LocalConstructBackend
from repro.server.session import PlayerSession, restore_avatar_state, snapshot_session
from repro.sim.engine import SimulationEngine
from repro.storage.base import StorageBackend, StorageOperation
from repro.storage.local import LocalDiskStorage
from repro.world.block import BlockType
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos, block_to_chunk
from repro.world.terrain import make_terrain_generator
from repro.world.world import ChunkNotLoadedError, VoxelWorld

#: how often dirty terrain is written back to persistent storage
PERSISTENCE_INTERVAL_S = 30.0


class ServerRuntime:
    """Base class for backend-specific runtime handles attached to a server.

    A server variant that wires extra services into the game server (e.g.
    Servo's serverless platform) attaches a typed handle here so experiments
    can inspect those services without resorting to dynamic attributes.
    """

    def before_tick(self, server: "GameServer", tick_index: int) -> None:
        """Called at the start of every tick, before client messages."""


@dataclass(frozen=True)
class TickRecord:
    """Summary of one executed tick."""

    index: int
    start_ms: float
    duration_ms: float
    players: int
    constructs: int
    chunks_integrated: int
    view_range_blocks: float
    #: the cluster shard that ran the tick; None on a standalone server
    shard: Optional[str] = None


@dataclass
class TickInProgress:
    """A tick split after chunk management (see ``tick_begin``).

    Holds everything ``tick_finish`` needs to complete the tick.
    """

    start_ms: float
    work: TickWork
    chunk_report: ChunkTickReport


class TickLoop:
    """Run-loop helpers shared by single servers and cluster coordinators.

    Subclasses provide ``tick()``, an ``engine`` and an append-only
    ``tick_records`` list (record ``i`` is tick ``i``); the helpers drive
    ticks and invoke the optional ``before_tick(host, tick_index)`` workload
    callback before each one.
    """

    engine: SimulationEngine
    tick_records: list[TickRecord]

    def tick(self) -> TickRecord:
        raise NotImplementedError

    def run_ticks(
        self, count: int, before_tick: Optional[Callable[["TickLoop", int], None]] = None
    ) -> list[TickRecord]:
        """Run ``count`` ticks, invoking ``before_tick(host, tick_index)`` first."""
        records = []
        for _ in range(int(count)):
            if before_tick is not None:
                before_tick(self, len(self.tick_records))
            records.append(self.tick())
        return records

    def run_for_seconds(
        self, seconds: float, before_tick: Optional[Callable[["TickLoop", int], None]] = None
    ) -> list[TickRecord]:
        """Run ticks until ``seconds`` of virtual time have elapsed."""
        deadline_ms = self.engine.now_ms + seconds * 1000.0
        records = []
        while self.engine.now_ms < deadline_ms:
            if before_tick is not None:
                before_tick(self, len(self.tick_records))
            records.append(self.tick())
        return records


@dataclass
class ServerStatistics:
    """Aggregate counters maintained across the server's lifetime."""

    messages_processed: int = 0
    blocks_placed: int = 0
    blocks_broken: int = 0


class GameServer(TickLoop):
    """One MVE server instance (one virtual world).

    A variant is a cost model plus the services it swaps in; a service left
    as None gets the all-local default (local disk, a two-worker local terrain
    pool, a local construct backend on the cost model's interval).  World,
    terrain generator, chunk manager and broadcast policy follow ``config``.
    """

    # Residue of the removed process pool; last reader is bench/spans.py:185.
    executor = None

    def __init__(
        self,
        engine: SimulationEngine,
        config: GameConfig,
        cost_model: TickCostModel,
        *,
        name: str = "server",
        storage: Optional[StorageBackend] = None,
        terrain_provider: Optional[TerrainProvider] = None,
        construct_backend: Optional[ConstructBackend] = None,
        runtime: Optional[ServerRuntime] = None,
        region: Optional[OwnershipRegion] = None,
        player_ids: Optional[Iterator[int]] = None,
    ) -> None:
        generator = make_terrain_generator(config.world_type, seed=WORLD_SEED)
        self.engine = engine
        self.config = config
        self.world = VoxelWorld()
        self.storage = storage if storage is not None else LocalDiskStorage(
            rng=engine.rng(f"{name}-disk")
        )
        provider = terrain_provider if terrain_provider is not None else LocalTerrainProvider(
            engine, generator
        )
        self.constructs = construct_backend if construct_backend is not None else (
            LocalConstructBackend(interval=cost_model.construct_tick_interval)
        )
        self.chunks = ChunkManager(
            engine=engine,
            world=self.world,
            generator=generator,
            provider=provider,
            storage=self.storage,
            view_distance_blocks=config.view_distance_blocks,
            region=region,
        )
        self.cost_model = cost_model
        #: full fan-out or interest map: joins, leaves, dirty events, flushes
        self.broadcast: FullFanout | InterestMap = broadcast_policy(config, self.chunks)
        self.name = name
        #: typed handle to backend-specific services (e.g. ServoRuntime)
        self.runtime = runtime
        #: ownership region when this server is one shard of a cluster
        self.region = region
        self.sessions: dict[int, PlayerSession] = {}
        self.stats = ServerStatistics()
        self.tick_index = 0
        # Cluster shards share one id iterator so player ids are world-unique.
        self._player_ids = player_ids if player_ids is not None else itertools.count(1)
        self._rng = engine.rng(f"server:{name}")
        self._construct_cells: dict[BlockPos, int] = {}
        #: cell positions per construct, so removal is O(cells of that construct)
        self._construct_positions: dict[int, list[BlockPos]] = {}
        self._construct_pins: dict[int, list[ChunkPos]] = {}
        #: chunk of each placed construct's first cell (its broadcast entry)
        self.construct_anchors: dict[int, tuple[int, int]] = {}
        #: lazily rebuilt position -> construct id map covering cells and their
        #: 6-neighbour halo (the block-edit hot path probes it once per edit)
        self._edit_lookup: Optional[dict[BlockPos, int]] = None
        #: insertion-ordered ids of sessions with queued messages; sessions
        #: register themselves on their first enqueue, so the tick only
        #: touches players that actually sent something
        self._pending_messages: dict[int, None] = {}
        #: avatars that joined or changed chunk since the last tick — the only
        #: ones whose chunk view (and interest centre) the tick has to refresh
        self._moved: list[Avatar] = []
        self._last_persist_ms = 0.0
        self.tick_records: list[TickRecord] = []
        #: lossy client-message channel, set when a fault plan has net faults
        self.message_channel = None
        #: graceful-degradation controller, set when a fault plan enables it
        self.degradation = None
        #: the run's fault injector (timeline access), set when faults install
        self.fault_injector = None

    @property
    def interest(self) -> Optional[InterestMap]:
        """The area-of-interest map, or None under full fan-out."""
        return self.broadcast if isinstance(self.broadcast, InterestMap) else None

    # -- player lifecycle -----------------------------------------------------------

    def connect_player(
        self, name: str | None = None, position: BlockPos | None = None
    ) -> PlayerSession:
        """Connect a player, restoring persisted state when it exists.

        ``position`` overrides both the spawn position and any stored
        position (a cluster spreads its players over zone spawn points).
        """
        player_id = next(self._player_ids)
        player_name = name or f"player-{player_id}"
        avatar = Avatar(
            player_id=player_id,
            name=player_name,
            position=position if position is not None else self.config.spawn_position,
        )
        session = PlayerSession(
            player_id=player_id,
            name=player_name,
            avatar=avatar,
            connected_at_ms=self.engine.now_ms,
        )
        # Player data is loaded from persistent storage on connect (Figure 3).
        key = f"player_{player_name}"
        if self.storage.exists(key):
            operation = self.storage.read(key)
            self.engine.metrics.histogram("player_load_ms").record(operation.latency_ms)
            session.restore_latency_ms = operation.latency_ms
            restore_avatar_state(avatar, operation.data or b"", restore_position=position is None)
        else:
            self.storage.write(key, snapshot_session(session))
        self.adopt(session)
        return session

    def adopt(self, session: PlayerSession) -> None:
        """Start serving a live session: a new connect, or a cluster handoff.

        The avatar must already stand where it will be served (a reconnect
        restores its stored position first): the chunk view and the
        broadcast subscription are centred on it.
        """
        session.attach_pending_index(self._pending_messages)
        if self.message_channel is not None:
            session.attach_channel(self.message_channel)
        self.sessions[session.player_id] = session
        self._moved.append(session.avatar)
        self.broadcast.join(session)

    def release(self, player_id: int) -> PlayerSession:
        """Stop serving a player and return its still-live session.

        Persists nothing and leaves the session connected, so a cluster can
        hand it to another shard with :meth:`adopt`.
        """
        session = self.sessions.pop(player_id, None)
        if session is None:
            raise KeyError(f"no connected player with id {player_id}")
        self.broadcast.leave(session)
        self._pending_messages.pop(player_id, None)
        self.chunks.forget_player(player_id)
        return session

    def disconnect_player(self, player_id: int) -> StorageOperation:
        """Disconnect a player; returns the storage write that saved its state."""
        session = self.release(player_id)
        session.disconnected = True
        operation = self.storage.write(f"player_{session.name}", snapshot_session(session))
        self.engine.metrics.histogram("player_save_ms").record(operation.latency_ms)
        return operation

    @property
    def player_count(self) -> int:
        return len(self.sessions)

    # -- constructs -------------------------------------------------------------------

    def place_construct(self, construct: SimulatedConstruct) -> None:
        """Place a player-built construct into the world and register it."""
        self.constructs.register_construct(construct)
        positions = []
        for cell in construct.cells:
            self._construct_cells[cell.position] = construct.construct_id
            positions.append(cell.position)
            if self.world.block_loaded(cell.position):
                self.world.set_block(cell.position, cell.block_type)
        self._construct_positions[construct.construct_id] = positions
        self._edit_lookup = None
        # Construct areas stay loaded so their simulation never pauses mid-experiment.
        pins = sorted({block_to_chunk(pos) for pos in positions})
        self._construct_pins[construct.construct_id] = pins
        if positions:
            self.construct_anchors[construct.construct_id] = InterestMap.chunk_of(positions[0])
        self.chunks.protect(pins)

    def remove_construct(self, construct_id: int) -> None:
        self.constructs.remove_construct(construct_id)
        cells = self._construct_cells
        for position in self._construct_positions.pop(construct_id, []):
            # A later overlapping construct may have claimed this position;
            # only drop cells this construct still owns.
            if cells.get(position) == construct_id:
                del cells[position]
        self._edit_lookup = None
        # Release the eviction pins place_construct took for this construct.
        self.chunks.unprotect(self._construct_pins.pop(construct_id, []))
        self.construct_anchors.pop(construct_id, None)

    @property
    def construct_count(self) -> int:
        return len(self.constructs.constructs())

    # -- message processing --------------------------------------------------------------

    def _process_message(self, session: PlayerSession, message: Message) -> None:
        avatar = session.avatar
        kind = message.kind
        if kind is MessageKind.MOVE:
            # Inlined throughout (chunk_of, the distance, the move itself):
            # this runs once per player per tick.
            payload = message.payload
            x, z = int(payload["x"]), int(payload["z"])
            old = avatar.position
            distance = math.hypot(old.x - x, old.z - z)
            avatar.position = BlockPos(x, int(payload["y"]), z)
            avatar.distance_travelled += distance
            cx, cz = x // CHUNK_SIZE, z // CHUNK_SIZE
            if cx != old.x // CHUNK_SIZE or cz != old.z // CHUNK_SIZE:
                self._moved.append(avatar)
            self.broadcast.note_dirty(
                (cx, cz), drift=distance, source_player_id=avatar.player_id
            )
        elif kind is MessageKind.PLACE_BLOCK:
            target = BlockPos(
                int(message.payload["x"]), int(message.payload["y"]), int(message.payload["z"])
            )
            block = BlockType(int(message.payload.get("block", int(BlockType.STONE))))
            try:
                self.world.set_block(target, block)
                avatar.blocks_placed += 1
                self.stats.blocks_placed += 1
            except ChunkNotLoadedError:
                pass  # placing into unloaded terrain is ignored, as in the real games
            self._notify_construct_edit(target)
            self._notify_broadcast_edit(target, avatar.player_id)
        elif kind is MessageKind.BREAK_BLOCK:
            target = BlockPos(
                int(message.payload["x"]), int(message.payload["y"]), int(message.payload["z"])
            )
            try:
                self.world.set_block(target, BlockType.AIR)
                avatar.blocks_broken += 1
                self.stats.blocks_broken += 1
            except ChunkNotLoadedError:
                pass
            self._notify_construct_edit(target)
            self._notify_broadcast_edit(target, avatar.player_id)
        elif kind is MessageKind.CHAT:
            avatar.chat_messages_sent += 1
        elif kind is MessageKind.SET_INVENTORY:
            avatar.inventory_item = str(message.payload.get("item", "stone"))
        elif kind is MessageKind.TOGGLE_CONSTRUCT:
            target = BlockPos(
                int(message.payload["x"]), int(message.payload["y"]), int(message.payload["z"])
            )
            self._notify_construct_edit(target)
            self._notify_broadcast_edit(target, avatar.player_id)
        elif kind is MessageKind.IDLE:
            pass
        else:  # pragma: no cover - defensive
            raise ValueError(f"unhandled message kind {kind!r}")

    def _build_edit_lookup(self) -> dict[BlockPos, int]:
        """Precompute the construct hit by an edit at any sensitive position.

        Covers every construct cell (mapped to its owner) plus the cells'
        6-neighbour halo: a halo position maps to the construct the original
        probe order (``position.neighbours()``, first hit wins) would find.
        Rebuilt only when a construct is placed or removed; the block-edit
        hot path then costs one dict probe instead of up to 7.
        """
        cells = self._construct_cells
        lookup: dict[BlockPos, int] = {}
        for cell_position in cells:
            for halo in cell_position.neighbours():
                if halo in cells or halo in lookup:
                    continue
                for probe in halo.neighbours():
                    owner = cells.get(probe)
                    if owner is not None:
                        lookup[halo] = owner
                        break
        lookup.update(cells)
        return lookup

    def _notify_construct_edit(self, position: BlockPos) -> None:
        """Tell the construct backend that a player touched a construct (or nearby).

        Edits adjacent to a construct also invalidate its speculation.
        """
        lookup = self._edit_lookup
        if lookup is None:
            lookup = self._edit_lookup = self._build_edit_lookup()
        construct_id = lookup.get(position)
        if construct_id is not None:
            self.constructs.on_player_modify(construct_id, position)

    def _notify_broadcast_edit(self, position: BlockPos, player_id: int) -> None:
        """Mark a block edit's chunk dirty for the broadcast policy."""
        self.broadcast.note_dirty(
            (position.x // CHUNK_SIZE, position.z // CHUNK_SIZE),
            drift=1.0,
            source_player_id=player_id,
        )

    # -- the tick -------------------------------------------------------------------------

    def tick_begin(self) -> TickInProgress:
        """Run the first half of a tick: the runtime, client messages and chunk management.

        :meth:`tick_finish` completes it, from construct simulation on.
        """
        start_ms = self.engine.now_ms
        work = TickWork(players=self.player_count)

        if self.runtime is not None:
            self.runtime.before_tick(self, self.tick_index)

        # 1. Process queued client messages.  Only sessions in the pending
        # index are drained (idle players cost one membership probe), and the
        # whole section is skipped when nothing arrived.  Iteration stays in
        # sessions-dict order so cross-player processing order is exactly the
        # pre-index behaviour.
        pending = self._pending_messages
        if pending:
            for player_id, session in self.sessions.items():
                if player_id not in pending:
                    continue
                for message in session.drain():
                    self._process_message(session, message)
                    work.actions += 1
                    self.stats.messages_processed += 1

        # 2. Chunk management.  A player who joined or crossed and has left
        # since is dropped here: refreshing its view would undo forget_player.
        sessions = self.sessions
        moved = [avatar for avatar in self._moved if avatar.player_id in sessions]
        self._moved.clear()
        chunk_report = self.chunks.update(
            [session.avatar for session in sessions.values()], moved
        )
        work.chunks_integrated = chunk_report.chunks_integrated
        work.local_generations_completed = chunk_report.local_generations_completed
        work.generation_backlog = chunk_report.generation_backlog
        work.chunks_streamed = chunk_report.chunks_streamed
        work.loaded_chunks = self.world.loaded_chunk_count
        return TickInProgress(start_ms=start_ms, work=work, chunk_report=chunk_report)

    def tick_finish(self, progress: TickInProgress, advance_clock: bool = True) -> TickRecord:
        """Complete a tick started by :meth:`tick_begin`."""
        start_ms = progress.start_ms
        work = progress.work
        chunk_report = progress.chunk_report

        # 3. Construct simulation.
        construct_report = self.constructs.tick(self.tick_index)
        work.constructs_total = construct_report.total_constructs
        work.constructs_simulated_locally = construct_report.simulated_locally
        work.constructs_merged = construct_report.merged_speculative
        work.construct_tick = construct_report.construct_tick

        # 4. Broadcast state updates.  The policy records what it sent in
        # ``work`` and sheds part of it when the previous tick blew the budget.
        self.broadcast.broadcast(self, work)

        # 5. Periodic persistence (off the critical path).
        if (start_ms - self._last_persist_ms) >= PERSISTENCE_INTERVAL_S * 1000.0:
            self.chunks.persist_dirty()
            self._last_persist_ms = start_ms

        # 6. Account the tick's virtual duration and advance the clock.
        duration_ms = self.cost_model.duration_ms(work, self._rng)
        if self.degradation is not None:
            self.degradation.observe(duration_ms)
        record = TickRecord(
            index=self.tick_index,
            start_ms=start_ms,
            duration_ms=duration_ms,
            players=self.player_count,
            constructs=work.constructs_total,
            chunks_integrated=work.chunks_integrated,
            view_range_blocks=chunk_report.min_view_range_blocks,
            shard=self.name if self.region is not None else None,
        )
        self.tick_records.append(record)
        # The tick's one metric write: the tick histograms and series are
        # views of this log (cluster shards share one registry).
        self.engine.metrics.tick_log.append(record)
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.span(
                "tick",
                "tick",
                start_ms=start_ms,
                duration_ms=duration_ms,
                track=self.name,
                args={
                    "index": record.index,
                    "players": record.players,
                    "constructs": record.constructs,
                    "chunks_integrated": record.chunks_integrated,
                    "cost_ms": self.cost_model.breakdown(work),
                },
            )
        self.broadcast.record(self, start_ms, duration_ms)
        self.tick_index += 1

        # The next tick starts after the tick budget, or immediately after an
        # overlong tick (the server falls behind, it does not skip work).
        if advance_clock:
            self.engine.advance_to(start_ms + max(self.config.tick_interval_ms, duration_ms))
        return record

    def tick(self) -> TickRecord:
        """Execute one simulation tick and advance the virtual clock.

        A cluster coordinator drives :meth:`tick_begin`/:meth:`tick_finish`
        directly instead, with ``advance_clock=False``: every shard ticks at
        the same virtual start time and the coordinator advances the shared
        clock once by the slowest shard's duration (lockstep).
        """
        telemetry = self.engine.telemetry
        if telemetry.enabled and telemetry.profiler is not None:
            with telemetry.profile("server.tick"):
                return self.tick_finish(self.tick_begin())
        return self.tick_finish(self.tick_begin())
