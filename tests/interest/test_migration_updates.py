"""Cluster interest: migrations carry subscriptions, updates_sent is continuous."""

from repro.check import check
from repro.cluster import build_opencraft_cluster
from repro.interest import SubscriptionState
from repro.server import GameConfig



def make_interest_cluster(engine, shards=2, **overrides):
    config = GameConfig(world_type="flat", interest_radius_chunks=4, **overrides)
    cluster = build_opencraft_cluster(engine, config, shards=shards)
    cluster.chunks.preload_area(config.spawn_position, 96.0)
    return cluster


def mover_migrations(cluster, session):
    return sum(record.player_id == session.player_id for record in cluster.migration_records)


def test_every_shard_gets_its_own_interest_map(engine):
    cluster = make_interest_cluster(engine)
    assert all(shard.interest is not None for shard in cluster.shards)
    # The coordinator turned on dirty-log recording for cross-shard routing.
    assert all(shard.interest.record_dirty_log for shard in cluster.shards)


def test_migration_moves_the_subscription_between_shards(engine):
    cluster = make_interest_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]  # spawns next to the zone boundary
    assert cluster.home[mover.player_id] == 0
    cluster.tick()
    position = mover.avatar.position
    mover.move(position.x + 5, position.y, position.z)
    cluster.tick()
    assert cluster.home[mover.player_id] == 1
    assert [record.player_id for record in cluster.migration_records] == [mover.player_id]
    source, target = cluster.shards[0].interest, cluster.shards[1].interest
    assert source.subscription(mover.player_id) is None
    sub = target.subscription(mover.player_id)
    assert sub is not None
    assert sub.center == target.chunk_of(mover.avatar.position)
    assert check(cluster) == []


def test_migration_imports_pending_far_state(make_session):
    """Pending far-tier deltas survive the handoff (no lost staleness debt)."""
    from repro.interest import InterestMap

    source = InterestMap(radius_chunks=2)
    target = InterestMap(radius_chunks=2)
    session = make_session(1)
    source.subscribe(session)
    for drift in (1.0, 1.0, 0.5):
        source.note_dirty((2, 2), drift=drift)  # two chunks out: the far tier
    state = source.export_state(1)
    assert state == SubscriptionState(
        near_entries=0, far_entries=3, far_first_tick=0, far_drift=2.5
    )
    source.unsubscribe(1)
    target.subscribe(session)
    target.import_state(1, state)
    sub = target.subscription(1)
    assert (sub.far_entries, sub.far_drift) == (3, 2.5)
    # The imported first-tick is clamped to the target's clock so staleness
    # never goes negative on a younger shard.
    assert sub.far_first_tick == 0


def test_updates_sent_stays_continuous_across_interest_migrations(engine):
    cluster = make_interest_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover, companion = sessions[3], sessions[2]
    # The companion walks alongside the mover: each one's moves are visible
    # state changes for the other, so both flush near-tier updates per tick.
    position = mover.avatar.position
    companion.move(position.x, position.y, position.z + 1)
    cluster.tick()
    history = []
    for step in range(60):
        for walker in (mover, companion):
            position = walker.avatar.position
            walker.move(position.x + 2, position.y, position.z)
        cluster.tick()
        history.append(mover.updates_sent)
    assert mover_migrations(cluster, mover) >= 1
    # Flush-derived updates_sent never resets when the session changes shard.
    assert history == sorted(history)
    assert history[-1] > 0
    assert check(cluster) == []


def test_cross_shard_events_route_only_to_subscribing_shards(engine):
    cluster = make_interest_cluster(engine)
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    mover = sessions[3]
    for step in range(30):
        position = mover.avatar.position
        mover.move(position.x + 2, position.y, position.z)
        cluster.tick()
    # The mover walked deep into shard 1's zone while shard-0 players stayed
    # near the boundary: its moves were relayed back to shard 0 only while
    # someone there subscribed to the dirtied chunks.
    assert mover_migrations(cluster, mover) >= 1
    assert engine.metrics.counter("interest_cross_shard_events") > 0
