"""Generated interleavings of join / move / leave against the view and interest invariants.

Each case is a list of ticks; before each tick a generated handful of player
events lands: a join (a name used before reconnects with its stored state),
a small step, a teleport across many chunks (negative coordinates and across
the origin included), two MOVEs in one tick (one that returns to the chunk it
left, one that crosses twice), a leave, a join-then-leave between two
ticks, and an eviction pass on every server (``_evict``, as the periodic one
runs it).  The cluster case also walks players across the zone edge and back.

After every tick the host passes ``repro.check.check`` (chunk views,
refcounts and interest index against a recomputation, a view for every
player not pending its first refresh and, in the cluster case, every session
held by exactly its home shard), and every subscription is centred on the
chunk its avatar stands in.  In the cluster case ``check`` also holds after
every event.  The oracles recompute from avatar positions and shard contents
and share nothing with the incremental bookkeeping they check.

One gap these cases found is left open and stepped around (see the ``xfail``
at the bottom): a player whose first tick on a server also carries a MOVE out
of the chunk it arrived in.  So a player sends nothing in the tick it joins,
nor in the tick after a shard handoff.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import check
from repro.cluster import build_servo_cluster
from repro.core import build_servo_server
from repro.interest import InterestMap
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.world.coords import CHUNK_SIZE

from hypothesis_profiles import examples

#: player names a case draws from; rejoining under a used name is a reconnect
SLOTS = 3
Y = 65

slots = st.integers(min_value=0, max_value=SLOTS - 1)
small = st.integers(min_value=-3, max_value=3)
far = st.integers(min_value=-40 * CHUNK_SIZE, max_value=40 * CHUNK_SIZE)
events = st.one_of(
    st.tuples(st.just("join"), slots),
    st.tuples(st.just("leave"), slots),
    st.tuples(st.just("join_then_leave"), slots),
    st.tuples(st.just("step"), slots, small, small),
    st.tuples(st.just("teleport"), slots, far, far),
    st.tuples(st.just("there_and_back"), slots, far, far),
    st.tuples(st.just("two_hops"), slots, far, far),
    st.tuples(st.just("cross_edge"), slots, st.booleans()),
    st.tuples(st.just("evict")),
)
cases = st.lists(st.lists(events, max_size=6), min_size=1, max_size=12)


class Players:
    """The connected sessions of one host, by slot."""

    def __init__(self, host, edge_x: int = 0) -> None:
        self.host = host
        #: the x of the line ``cross_edge`` steps over (a cluster's zone edge)
        self.edge_x = edge_x
        self.sessions: dict[int, object] = {}
        #: slots whose server's chunk manager has not seen them yet
        self.settling: set[int] = set()

    def apply(self, event) -> None:
        if event == ("evict",):
            for server in getattr(self.host, "shards", [self.host]):
                if server.avatars.avatars:
                    server.chunks._evict(server.avatars)
            return
        kind, slot, *args = event
        session = self.sessions.get(slot)
        if kind in ("join", "join_then_leave"):
            if session is None:
                session = self.sessions[slot] = self.host.connect_player(f"walker-{slot}")
                self.settling.add(slot)
            if kind == "join_then_leave":
                self.apply(("leave", slot))
        elif session is None:
            return
        elif kind == "leave":
            self.host.disconnect_player(session.player_id)
            del self.sessions[slot]
        elif slot in self.settling:
            return
        elif kind == "step":
            here = session.avatar.position
            session.move(here.x + args[0], Y, here.z + args[1])
        elif kind == "teleport":
            session.move(args[0], Y, args[1])
        elif kind == "there_and_back":
            here = session.avatar.position
            session.move(args[0], Y, args[1])
            session.move(here.x, Y, here.z)
        elif kind == "two_hops":
            session.move(args[0], Y, args[1])
            session.move(args[1], Y, args[0])
        elif kind == "cross_edge":  # a step over the edge (eastward), or back over it
            session.move(self.edge_x + (2 if args[0] else -3), Y, session.avatar.position.z)


def check_server(server) -> None:
    """Every subscription of one game server is centred where its avatar stands."""
    if server.interest is not None:
        for player_id, session in server.sessions.items():
            center = server.interest.subscription(player_id).center
            assert center == InterestMap.chunk_of(session.avatar.position), player_id


def make_config(interest_radius):
    return GameConfig(
        world_type="flat", view_distance_blocks=40.0, interest_radius_chunks=interest_radius
    )


def make_server(servo: bool, interest_radius):
    config = make_config(interest_radius)
    engine = SimulationEngine(seed=11)
    server = build_servo_server(engine, config) if servo else make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 48.0)
    return server


@settings(max_examples=examples(100))
@given(case=cases, servo=st.booleans(), interest_radius=st.sampled_from([None, 2, 4]))
def test_views_and_subscriptions_follow_the_avatars_on_one_server(case, servo, interest_radius):
    server = make_server(servo, interest_radius)
    players = Players(server)
    for tick_events in case:
        for event in tick_events:
            players.apply(event)
        server.tick()
        players.settling.clear()
        assert check(server) == []
        check_server(server)


@settings(max_examples=examples(40))
@given(case=cases, interest_radius=st.sampled_from([2, 4]))
def test_views_and_subscriptions_follow_the_avatars_across_a_zone_edge(case, interest_radius):
    config = make_config(interest_radius)
    cluster = build_servo_cluster(SimulationEngine(seed=11), config, shards=2)
    cluster.chunks.preload_area(config.spawn_position, 48.0)
    players = Players(cluster, edge_x=cluster.partitioner.region(1).min_cx * CHUNK_SIZE)
    for tick_events in case:
        for event in tick_events:
            players.apply(event)
            assert check(cluster) == []
        migrations_before = len(cluster.migration_records)
        cluster.tick()
        # A player handed over this round meets its new shard's chunk manager next round.
        handed_over = {
            record.player_id for record in cluster.migration_records[migrations_before:]
        }
        players.settling = {
            slot for slot, session in players.sessions.items() if session.player_id in handed_over
        }
        assert check(cluster) == []
        for shard in cluster.shards:
            check_server(shard)
        for session in players.sessions.values():
            zone = cluster.partitioner.zone_of_block(session.avatar.position)
            assert cluster.home[session.player_id] == zone
            assert cluster.shards[zone].sessions[session.player_id] is session


@pytest.mark.xfail(
    strict=True,
    reason="first sight fires no center listener, so a MOVE out of the arrival chunk in a "
    "player's first tick on a server leaves its subscription one crossing behind; the fix "
    "moves the cluster_mixed sim_digest (post-handoff MOVEs), so it needs its own re-pin",
)
def test_a_player_who_joins_and_leaves_its_chunk_in_one_tick_is_subscribed_where_it_stands():
    server = make_server(servo=False, interest_radius=2)
    session = server.connect_player("walker")
    session.move(session.avatar.position.x + 5 * CHUNK_SIZE, Y, session.avatar.position.z)
    server.tick()
    assert check(server) == []
    check_server(server)
