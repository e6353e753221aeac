"""A lossy client-to-server message channel.

When a fault plan enables net faults, every client message passes through one
shared :class:`FaultyMessageChannel` on its way into a session's inbox.  The
channel stamps each message with a per-player monotonic ``sequence`` number
and then draws one disposition from the ``faults:net`` RNG stream: drop it,
deliver it twice, deliver it after a uniform delay, or deliver it normally.

The server side tolerates the faults through **idempotent update
application**: deliveries are deduplicated against a bounded per-player
window of recently seen sequence numbers, so a duplicated message is applied
exactly once, and a delayed message (which arrives out of order but is not a
duplicate) is still accepted, on the session it was sent on.  Without a fault
plan no channel exists and messages go straight into the inbox — the
zero-fault hot path is untouched.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import TYPE_CHECKING

from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector
    from repro.server.session import PlayerSession
    from repro.sim.engine import SimulationEngine

#: per-player window of recently seen sequence numbers (dedupe horizon)
SEEN_WINDOW = 512


class SeenWindow:
    """A bounded set of recently delivered sequence numbers: one player's, or one batch stream's."""

    __slots__ = ("_order", "_members")

    def __init__(self) -> None:
        self._order: deque[int] = deque(maxlen=SEEN_WINDOW)
        self._members: set[int] = set()

    def add(self, sequence: int) -> bool:
        """Record ``sequence``; returns False if it was already seen (a dupe)."""
        if sequence in self._members:
            return False
        if len(self._order) == self._order.maxlen:
            self._members.discard(self._order[0])
        self._order.append(sequence)
        self._members.add(sequence)
        return True


class FaultyMessageChannel:
    """The shared wire between clients and (all) servers of one run."""

    def __init__(self, engine: "SimulationEngine", injector: "FaultInjector") -> None:
        if injector.plan.net is None:
            raise ValueError("the fault plan has no net section")
        self.engine = engine
        self.faults = injector.plan.net
        self.metrics = engine.metrics
        self._rng = injector.net_rng
        self._record = injector.record
        self._sequences: dict[int, int] = {}
        self._seen: dict[int, SeenWindow] = {}

    # -- the wire ---------------------------------------------------------------------

    def send(self, session: "PlayerSession", message: Message) -> None:
        """Carry one freshly sent client message to its session's inbox."""
        player_id = message.player_id
        sequence = self._sequences.get(player_id, 0) + 1
        self._sequences[player_id] = sequence
        stamped = message._replace(sequence=sequence)

        faults = self.faults
        draw = float(self._rng.random())
        if draw < faults.drop_rate:
            self.metrics.increment("net_messages_dropped")
            self._record("net.drop", f"player={player_id} seq={sequence}")
            return
        if draw < faults.drop_rate + faults.duplicate_rate:
            self.metrics.increment("net_messages_duplicated")
            self._record("net.duplicate", f"player={player_id} seq={sequence}")
            self._deliver(session, stamped)
            self._deliver(session, stamped)
            return
        if draw < faults.drop_rate + faults.duplicate_rate + faults.delay_rate:
            span = faults.delay_ms_max - faults.delay_ms_min
            delay_ms = faults.delay_ms_min + float(self._rng.random()) * span
            self.metrics.increment("net_messages_delayed")
            self._record("net.delay", f"player={player_id} seq={sequence} ms={delay_ms:.1f}")
            # A player is one session for life, so the session it was sent on
            # is still its inbox after a migration or a shard respawn.
            self.engine.schedule_in(
                delay_ms,
                partial(self._deliver, session, stamped),
                name=f"net-delay:{player_id}:{sequence}",
            )
            return
        self._deliver(session, stamped)

    # -- delivery ---------------------------------------------------------------------

    def _deliver(self, session: "PlayerSession", message: Message) -> None:
        """Idempotent application: at most one delivery per sequence number."""
        window = self._seen.get(message.player_id)
        if window is None:
            window = self._seen[message.player_id] = SeenWindow()
        if not window.add(message.sequence):
            self.metrics.increment("net_duplicates_dropped")
            return
        try:
            session.enqueue(message)
        except RuntimeError:
            # The player disconnected while a delayed message was in flight.
            self.metrics.increment("net_messages_lost")
