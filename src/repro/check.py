"""One consistency check per host: the invariants a game server or cluster keeps between ticks.

:func:`check` returns one line per violated invariant, each naming the server
or cluster that breaks it, and an empty list when the host is consistent.

* A server: every session's avatar is bound to its own row of the server's
  avatar table, and the table has no other row; its chunk views match a
  recomputation over its own avatars; every
  session with no view is pending its first refresh (its avatar is in the
  loop's moved list); every chunk waiting for integration is queued once and
  its position is still pending, so it is never requested again; its
  interest index, if any, matches a recomputation;
  every registered construct is filed under its own id (registration rejects
  a taken one, so ids are unique) and every placement record names one; its
  eviction pins are exactly those of its placed constructs' cells; and its
  construct state vectors keep their invariants.
* A cluster: every session is held by exactly its home shard (a disconnected
  one by none, its avatar bound to no table), every construct
  is registered on exactly the shard it was placed on (so construct ids are
  unique cluster-wide), and every shard, a killed one included, passes the
  server checks.
* The virtual clock is monotone, for every server (a killed shard's ticks
  included, from the run's tick log) and for a cluster's rounds: a tick starts
  no earlier than the previous one's start plus the longer of the tick
  interval and its duration.

The checks recompute from avatar positions, shard contents and construct
cells, and share nothing with the incremental bookkeeping they check.
"""

from __future__ import annotations

from collections import Counter
from itertools import pairwise

from repro.cluster.coordinator import ClusterCoordinator
from repro.server.chunkmanager import ChunkManager, _ring_offsets
from repro.server.entities import Avatar
from repro.server.gameloop import GameServer, TickRecord
from repro.world.coords import CHUNK_SIZE, ChunkPos, block_to_chunk


def check(host: GameServer | ClusterCoordinator) -> list[str]:
    """Every invariant ``host`` violates, one line each (empty when consistent)."""
    interval_ms = host.config.tick_interval_ms
    if not isinstance(host, ClusterCoordinator):
        return _check_server(host) + _check_clock(host.name, host.tick_records, interval_ms)
    failures = []
    if not _verify_sessions(host):
        failures.append(f"{host.name}: sessions: a session is not held by exactly its home shard")
    if not _verify_constructs(host):
        failures.append(
            f"{host.name}: constructs: a construct is not registered on exactly its home shard"
        )
    for shard in host.shards:
        failures.extend(_check_server(shard))
    failures.extend(_check_clock(host.name, host.tick_records, interval_ms))
    # The shared tick log keeps a respawned shard's ticks; shards[i] does not.
    shard_ticks: dict[str, list[TickRecord]] = {}
    for record in host.engine.metrics.tick_log:
        shard_ticks.setdefault(record.shard, []).append(record)
    for name, records in shard_ticks.items():
        failures.extend(_check_clock(name, records, interval_ms))
    return failures


def _check_server(server: GameServer) -> list[str]:
    failures = []
    avatars = [session.avatar for session in server.sessions.values()]
    if not server.avatars.holds_exactly(avatars):
        failures.append(f"{server.name}: avatar table: a session's avatar is not on its own row")
    if not _verify_views(server.chunks, avatars):
        failures.append(f"{server.name}: chunk views: differ from a recomputation")
    pending = {avatar.player_id for avatar in server._moved}
    unseen = sorted(server.sessions.keys() - server.chunks._player_views.keys() - pending)
    if unseen:
        failures.append(f"{server.name}: first sight: players {unseen} have no view, none pending")
    queued = [ready.chunk.position for ready in server.chunks._ready]
    if len(set(queued)) != len(queued) or not server.chunks._pending.issuperset(queued):
        failures.append(f"{server.name}: chunk requests: a queued chunk is not pending, or twice")
    if server.interest is not None and not server.interest.verify_index():
        failures.append(f"{server.name}: interest index: differs from a recomputation")
    registry = server.constructs._constructs
    records = (server._construct_positions, server._construct_pins, server.construct_anchors)
    misfiled = [key for key, construct in registry.items() if key != construct.construct_id]
    if misfiled or any(not record.keys() <= registry.keys() for record in records):
        failures.append(f"{server.name}: construct ids: {misfiled} misfiled, or a stray record")
    placed = [c for key, c in registry.items() if key in server._construct_positions]
    pins = Counter(chunk for c in placed for chunk in {block_to_chunk(p) for p in c.positions})
    if server.chunks._protected != dict(pins):
        failures.append(f"{server.name}: construct pins: differ from the placed constructs' cells")
    if not server.constructs.verify_states():
        failures.append(f"{server.name}: construct states: a state vector breaks its invariants")
    return failures


def _check_clock(owner: str, records: list[TickRecord], interval_ms: float) -> list[str]:
    """One line if a tick of ``records`` starts before its predecessor let it."""
    for earlier, later in pairwise(records):
        due_ms = earlier.start_ms + max(interval_ms, earlier.duration_ms)
        if later.start_ms < due_ms:
            return [
                f"{owner}: tick clock: tick {later.index} starts at {later.start_ms!r} ms, "
                f"before {due_ms!r} ms"
            ]
    return []


def _verify_views(chunks: ChunkManager, avatars: list[Avatar]) -> bool:
    """True when the view bookkeeping matches a from-scratch recomputation.

    Holds between ticks: every view is centred on the chunk its avatar
    stands in, no view outlives its player, the reference counts are the
    sum of the owned chunks of each centre's ring, and the unavailable set
    is exactly the required chunks that are not resident.  An avatar with
    no view yet (it joined after the last :meth:`ChunkManager.update`)
    requires nothing.
    """
    by_player = {avatar.player_id: avatar for avatar in avatars}
    if not chunks._player_views.keys() <= by_player.keys():
        return False
    counts: Counter[ChunkPos] = Counter()
    for player_id, center in chunks._player_views.items():
        position = by_player[player_id].position
        if center != (position.x // CHUNK_SIZE, position.z // CHUNK_SIZE):
            return False
        counts.update(
            chunk
            for dx, dz in _ring_offsets(chunks._view_radius_chunks)
            if chunks._owns(chunk := ChunkPos(center[0] + dx, center[1] + dz))
        )
    is_loaded = chunks.world.is_loaded
    return chunks._chunk_refcounts == counts and chunks._unavailable == {
        chunk for chunk in counts if not is_loaded(chunk)
    }


def _verify_sessions(cluster: ClusterCoordinator) -> bool:
    """True when every session is held where ``cluster.home`` says.

    A connected session is held by ``shards[home[id]]`` alone, as the same
    object; a disconnected one by no shard, and its avatar is unbound; no
    shard holds an unknown id.
    """
    # Per player: (slot, holds this very object) for every shard holding its id.
    return all(
        [(slot, shard.sessions[player_id] is session)
         for slot, shard in enumerate(cluster.shards) if player_id in shard.sessions]
        == ([] if session.disconnected else [(cluster.home[player_id], True)])
        and not (session.disconnected and session.avatar.table is not None)
        for player_id, session in cluster.sessions.items()
    ) and all(shard.sessions.keys() <= cluster.sessions.keys() for shard in cluster.shards)


def _verify_constructs(cluster: ClusterCoordinator) -> bool:
    """True when every construct is registered where it was placed.

    A placed construct is registered on ``shards[_construct_homes[id]]``
    alone, and that shard's region holds the chunk of its first cell; no
    shard's backend holds an id the coordinator did not place.
    """
    # Per shard: construct id -> the first cell of each construct it registers.
    held = [
        {c.construct_id: c.positions[0] for c in shard.constructs.constructs()}
        for shard in cluster.shards
    ]
    return all(
        [slot for slot, anchors in enumerate(held) if construct_id in anchors] == [zone]
        and cluster.shards[zone].region.contains(block_to_chunk(held[zone][construct_id]))
        for construct_id, zone in cluster._construct_homes.items()
    ) and all(anchors.keys() <= cluster._construct_homes.keys() for anchors in held)
