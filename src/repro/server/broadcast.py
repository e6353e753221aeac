"""Full fan-out: the paper's broadcast, one state update per player per tick.

A server broadcasts through one policy object, picked once by
:func:`broadcast_policy` when the server is built: a :class:`FullFanout` or an
:class:`~repro.interest.InterestMap`.  Both answer the same calls, so the game
loop, cost model, graceful degradation and cluster coordinator never ask which
one they hold.  Full fan-out routes nothing — every update reaches everyone —
so its dirty and cluster hooks do nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.interest import InterestMap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.chunkmanager import ChunkManager
    from repro.server.config import GameConfig
    from repro.server.costmodel import TickWork
    from repro.server.gameloop import GameServer
    from repro.server.session import PlayerSession


class FullFanout:
    """Every connected player gets one state update per tick.

    Sessions derive ``updates_sent`` from the rounds counted in :attr:`ticks`.
    """

    #: set by a cluster coordinator; full fan-out logs nothing to relay
    record_dirty_log = False

    def __init__(self) -> None:
        self.ticks = 0

    def join(self, session: "PlayerSession") -> None:
        session.attach_broadcast_clock(self)

    def leave(self, session: "PlayerSession") -> None:
        session.detach_broadcast_clock()

    def note_dirty(self, chunk, drift=0.0, source_player_id=None) -> None:
        """Nothing to route: the next round sends every player everything."""

    def broadcast(self, server: "GameServer", work: "TickWork") -> None:
        """One update per player, less the ones graceful degradation sheds."""
        self.ticks += 1
        if server.degradation is not None:
            work.players -= server.degradation.shed_count(work.players, "players")

    def record(self, server: "GameServer", start_ms: float, duration_ms: float) -> None:
        """No metric beyond the tick's own."""

    def export_state(self, player_id: int) -> None:
        return None

    def import_state(self, player_id: int, state: None) -> None:
        """No per-player broadcast state travels with a migrating player."""

    def drain_dirty_log(self) -> list:
        return []

    def has_subscribers(self, chunk: tuple[int, int]) -> bool:
        return False


def broadcast_policy(config: "GameConfig", chunks: "ChunkManager") -> FullFanout | InterestMap:
    """The one place a server's broadcast mode is decided.

    Full fan-out unless ``config`` sets an interest radius; an interest map's
    subscription centres then ride ``chunks``' chunk-crossing detection.
    """
    if not config.interest_enabled:
        return FullFanout()
    interest = InterestMap(radius_chunks=config.interest_radius_chunks)
    chunks.center_listeners.append(interest.update_center)
    return interest
