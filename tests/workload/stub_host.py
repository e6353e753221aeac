"""A host that only records: the slice of a game host a ``BotSwarm`` touches.

``sent`` holds every message any bot enqueued, in order.  :meth:`end_tick`
does the two things a real tick does that a swarm can observe: it applies the
tick's ``MOVE`` messages to the avatars (``R`` aims its block edits from its
avatar's position) and advances virtual time (staggered joins read the clock).
Bots spawn at ``spawns``, cycled in connect order, so a population can be
spread out as a cluster's is.  ``config`` carries the one config value a swarm
reads, the tick interval: a real server's is fixed at 50 ms, a stub's may be
any, so a differential can vary the stride arithmetic.
"""

from dataclasses import dataclass

from repro.net.message import Message, MessageKind
from repro.server.config import TICK_INTERVAL_MS
from repro.server.entities import Avatar
from repro.sim import SimulationEngine
from repro.world.coords import BlockPos

SPAWN = BlockPos(0, 65, 0)


class StubSession:
    def __init__(self, player_id: int, position: BlockPos, sent: list[Message]) -> None:
        self.player_id = player_id
        self.avatar = Avatar(player_id=player_id, name=f"player-{player_id}", position=position)
        self.disconnected = False
        self._sent = sent

    def enqueue(self, message: Message) -> None:
        assert message.player_id == self.player_id and not self.disconnected
        self._sent.append(message)


@dataclass(frozen=True)
class StubConfig:
    tick_interval_ms: float


class StubHost:
    def __init__(
        self, seed: int = 0, spawns=(SPAWN,), tick_interval_ms: float = TICK_INTERVAL_MS
    ) -> None:
        self.engine = SimulationEngine(seed=seed)
        self.config = StubConfig(tick_interval_ms)
        self.sessions: list[StubSession] = []
        self.sent: list[Message] = []
        self._spawns = spawns
        self._applied = 0

    def connect_player(self, name=None) -> StubSession:
        position = self._spawns[len(self.sessions) % len(self._spawns)]
        session = StubSession(len(self.sessions), position, self.sent)
        self.sessions.append(session)
        return session

    def end_tick(self) -> list[Message]:
        """Apply and return the messages sent since the last call; advance one tick."""
        messages = self.sent[self._applied :]
        self._applied = len(self.sent)
        for message in messages:
            if message.kind is MessageKind.MOVE:
                payload = message.payload
                self.sessions[message.player_id].avatar.position = BlockPos(
                    payload["x"], payload["y"], payload["z"]
                )
        self.engine.advance_by(self.config.tick_interval_ms)
        return messages
