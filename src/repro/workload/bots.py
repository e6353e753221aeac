"""Emulated players (bots) and join schedules.

A :class:`BotSwarm` owns a set of bots, connects them to a game host
according to a :class:`JoinSchedule` (all at once or staggered, as in
Figure 12a where a player joins every ten seconds), and produces the per-tick
driver (:meth:`BotSwarm.drive`) the game loop runs before every tick.

Each tick the driver goes through the bots in bot order.  Every maximal run
of consecutive walker bots is stepped as one array segment
(:class:`~repro.workload.behavior.WalkerArrays`), after which each of its
connected bots sends its one ``MOVE`` through its own session; any other bot
(``R``) acts on its own.  All draw from the swarm's one ``"bots"`` stream, in
bot order, so the stream is consumed exactly as if every bot acted by itself.

The swarm addresses any :class:`GameHost`: a single
:class:`~repro.server.GameServer` or a
:class:`~repro.cluster.ClusterCoordinator`.  Either way a bot holds its
player's one :class:`~repro.server.session.PlayerSession`; a cluster
migration moves that session between shards, so which shard serves a bot is
invisible to the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, groupby
from typing import Callable, Optional, Protocol, runtime_checkable

import numpy as np

from repro.net.message import Message, MessageKind
from repro.server.config import GameConfig
from repro.server.gameloop import TickRecord
from repro.server.session import PlayerSession
from repro.sim.engine import SimulationEngine
from repro.workload.behavior import Behavior, WalkerArrays, WalkerBehavior
from repro.world.coords import BlockPos


@runtime_checkable
class ChunkPreloader(Protocol):
    """The slice of chunk management the workload layer needs."""

    def preload_area(self, center: BlockPos, radius_blocks: float) -> int: ...


@runtime_checkable
class GameHost(Protocol):
    """The driving surface shared by ``GameServer`` and ``ClusterCoordinator``."""

    engine: SimulationEngine
    config: GameConfig
    name: str
    tick_records: list[TickRecord]

    @property
    def chunks(self) -> ChunkPreloader: ...

    @property
    def player_count(self) -> int: ...

    def connect_player(self, name: str | None = None) -> PlayerSession: ...

    def place_construct(self, construct) -> None: ...

    def tick(self) -> TickRecord: ...

    def run_ticks(
        self, count: int, before_tick: Optional[Callable[..., None]] = None
    ) -> list[TickRecord]: ...

    def run_for_seconds(
        self, seconds: float, before_tick: Optional[Callable[..., None]] = None
    ) -> list[TickRecord]: ...


@dataclass
class BotPlayer:
    """One emulated player."""

    name: str
    behavior: Behavior
    session: Optional[PlayerSession] = None
    spawn: Optional[BlockPos] = None

    @property
    def connected(self) -> bool:
        return self.session is not None and not self.session.disconnected

    def act(self, server: GameHost, tick_index: int, rng: np.random.Generator) -> None:
        """Queue this tick's messages on the bot's session (not for walkers)."""
        if not self.connected:
            return
        assert self.session is not None and self.spawn is not None
        messages = self.behavior.act(
            player_id=self.session.player_id,
            position=self.session.avatar.position,
            spawn=self.spawn,
            tick_index=tick_index,
            tick_interval_ms=server.config.tick_interval_ms,
            rng=rng,
        )
        for message in messages:
            self.session.enqueue(message)


@dataclass(frozen=True)
class JoinSchedule:
    """When bots connect to the server."""

    #: bots connected before the first tick
    initial: int = 0
    #: connect one additional bot every this many seconds (None = never)
    interval_s: Optional[float] = None

    @staticmethod
    def all_at_start() -> "JoinSchedule":
        return JoinSchedule(initial=-1, interval_s=None)

    @staticmethod
    def staggered(interval_s: float, initial: int = 0) -> "JoinSchedule":
        return JoinSchedule(initial=initial, interval_s=interval_s)


class _WalkerRun:
    """A maximal run of consecutive walker bots: one array segment of the swarm."""

    def __init__(self, bots: list[BotPlayer]) -> None:
        self.bots = bots
        self.walkers = WalkerArrays([bot.behavior for bot in bots])
        self._connected = [False] * len(bots)
        #: (session, player id, y) of each connected bot, in bot order
        self._senders: list[tuple[PlayerSession, int, int]] = []

    def _connection_changed(self, connected: list[bool]) -> None:
        """A bot joined or was disconnected (a session never reconnects)."""
        for row, (now, before) in enumerate(zip(connected, self._connected)):
            if now and not before:
                self.walkers.bind(row, self.bots[row].spawn)
        self._connected = connected
        self.walkers.set_active([row for row, now in enumerate(connected) if now])
        # The server applies a MOVE verbatim, so an avatar keeps its spawn's y.
        self._senders = [
            (bot.session, bot.session.player_id, bot.spawn.y)
            for bot in compress(self.bots, connected)
        ]

    def act(self, server: GameHost, tick_index: int, rng: np.random.Generator) -> None:
        """Step the connected bots and queue each one's ``MOVE``, in bot order."""
        # BotPlayer.connected, inlined: a frame per bot is what this path exists to avoid.
        sessions = [bot.session for bot in self.bots]
        connected = [s is not None and not s.disconnected for s in sessions]
        if connected != self._connected:
            self._connection_changed(connected)
        xs, zs = self.walkers.step(tick_index, server.config.tick_interval_ms, rng)
        for (session, player_id, y), x, z in zip(self._senders, xs, zs):
            session.enqueue(Message(MessageKind.MOVE, player_id, {"x": x, "y": y, "z": z}))


class BotSwarm:
    """A population of bots driving one game host (a server or a cluster)."""

    def __init__(
        self,
        behaviors: list[Behavior],
        schedule: JoinSchedule | None = None,
    ) -> None:
        self.bots = [
            BotPlayer(name=f"bot-{index}", behavior=behavior)
            for index, behavior in enumerate(behaviors)
        ]
        #: what the driver steps each tick, in bot order
        self._steps: list[_WalkerRun | BotPlayer] = []
        for walkers, run in groupby(
            self.bots, key=lambda bot: isinstance(bot.behavior, WalkerBehavior)
        ):
            self._steps += [_WalkerRun(list(run))] if walkers else run
        self.schedule = schedule or JoinSchedule.all_at_start()
        self._next_join_index = 0
        #: set by :meth:`install`: the bot stream, the bots connected up
        #: front, and the virtual time the join schedule counts from
        self._rng: np.random.Generator | None = None
        self._initial = 0
        self._start_ms = 0.0

    def _connect_next(self, server: GameHost) -> None:
        if self._next_join_index >= len(self.bots):
            return
        bot = self.bots[self._next_join_index]
        bot.session = server.connect_player(bot.name)
        bot.spawn = bot.session.avatar.position
        self._next_join_index += 1

    def install(self, server: GameHost) -> Callable[[GameHost, int], None]:
        """Connect the initial bots and return the per-tick driver, :meth:`drive`."""
        self._rng = server.engine.rng("bots")
        self._initial = len(self.bots) if self.schedule.initial < 0 else self.schedule.initial
        for _ in range(min(self._initial, len(self.bots))):
            self._connect_next(server)
        self._start_ms = server.engine.now_ms
        return self.drive

    def drive(self, server: GameHost, tick_index: int) -> None:
        """Connect the bots the schedule says are due, then step every bot in bot order."""
        assert self._rng is not None
        if self.schedule.interval_s is not None:
            elapsed_s = (server.engine.now_ms - self._start_ms) / 1000.0
            target = self._initial + int(elapsed_s // self.schedule.interval_s)
            while self._next_join_index < min(target, len(self.bots)):
                self._connect_next(server)
        for step in self._steps:
            step.act(server, tick_index, self._rng)
