"""A player disconnect racing a cross-shard migration must not lose or
duplicate the session (the migration would otherwise resurrect it on the
target shard)."""

import pytest

from repro.check import check
from repro.cluster import build_opencraft_cluster
from repro.server import GameConfig


def make_cluster(engine, shards=2):
    cluster = build_opencraft_cluster(engine, GameConfig(world_type="flat"), shards=shards)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    return cluster


def cross_boundary(cluster, session):
    position = session.avatar.position
    session.move(position.x + 5, position.y, position.z)


def sessions_holding(cluster, player_id):
    return [shard for shard in cluster.shards if player_id in shard.sessions]


def test_disconnect_before_the_migration_round_is_not_resurrected(engine):
    cluster = make_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]  # spawns next to the zone boundary
    cluster.tick()
    # The client walks across the boundary and disconnects in the same round,
    # before the round's migration sweep has run.
    cross_boundary(cluster, mover)
    cluster.disconnect_player(mover.player_id)
    cluster.tick()

    assert mover.disconnected
    assert len(cluster.migration_records) == 0
    # The session exists on no shard: neither lost-and-recreated nor doubled.
    assert sessions_holding(cluster, mover.player_id) == []
    assert cluster.player_count == 3
    assert check(cluster) == []


def test_disconnect_under_a_running_migration_is_not_resurrected(engine):
    # The deeper race: the migration was already selected for this session
    # when the shard dropped it (e.g. a client timeout the shard detected).
    # _migrate must drop the handoff instead of reconnecting the dead session
    # on the target shard.
    cluster = make_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]
    cluster.tick()
    home = cluster.home[mover.player_id]
    cluster.shards[home].disconnect_player(mover.player_id)
    cluster._migrate(mover, (home + 1) % 2)

    assert len(cluster.migration_records) == 0
    assert sessions_holding(cluster, mover.player_id) == []
    assert cluster.home[mover.player_id] == home
    assert check(cluster) == []


def test_migration_then_disconnect_leaves_exactly_one_tombstone(engine):
    cluster = make_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]
    cluster.tick()
    cross_boundary(cluster, mover)
    cluster.tick()
    assert [record.player_id for record in cluster.migration_records] == [mover.player_id]
    assert check(cluster) == []

    cluster.disconnect_player(mover.player_id)
    assert sessions_holding(cluster, mover.player_id) == []
    assert cluster.player_count == 3
    assert check(cluster) == []
    # A second disconnect is an error, not a silent no-op.
    with pytest.raises(KeyError):
        cluster.disconnect_player(mover.player_id)
    # Later rounds never re-materialise the session anywhere.
    for _ in range(5):
        cluster.tick()
    assert sessions_holding(cluster, mover.player_id) == []
    assert check(cluster) == []
