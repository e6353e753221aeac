"""The chunk-to-subscriber index stays consistent under membership churn."""

import pytest

from repro.check import check
from repro.interest import InterestMap
from repro.server import GameConfig, make_opencraft
from repro.world.coords import CHUNK_SIZE


def test_interest_map_rejects_a_radius_below_one():
    with pytest.raises(ValueError):
        InterestMap(radius_chunks=0)


def test_subscribe_covers_the_chebyshev_square(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1, x=8, z=8))  # chunk (0, 0)
    for dx in range(-2, 3):
        for dz in range(-2, 3):
            assert interest.has_subscribers((dx, dz))
    assert not interest.has_subscribers((3, 0))
    assert interest.verify_index()


def test_double_subscribe_is_rejected(make_session):
    interest = InterestMap(radius_chunks=1)
    interest.subscribe(make_session(1))
    with pytest.raises(ValueError):
        interest.subscribe(make_session(1))


def test_unsubscribe_removes_every_footprint_chunk(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    interest.subscribe(make_session(2, x=8 + CHUNK_SIZE, z=8))
    interest.unsubscribe(1)
    assert interest.subscription(1) is None and interest.subscription(2) is not None
    assert interest.verify_index()
    interest.unsubscribe(2)
    assert not interest.has_subscribers((0, 0))
    assert interest.verify_index()
    # Unsubscribing an unknown player is a no-op returning None.
    assert interest.unsubscribe(99) is None


def test_update_center_moves_only_the_footprint_delta(make_session):
    interest = InterestMap(radius_chunks=1)
    interest.subscribe(make_session(1))  # center (0, 0)
    interest.update_center(1, (2, 0))
    assert not interest.has_subscribers((-1, 0))
    assert interest.has_subscribers((3, 0))
    assert interest.verify_index()
    # Same-center updates are no-ops.
    interest.update_center(1, (2, 0))
    assert interest.verify_index()


def test_update_center_moves_chunks_between_tiers(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))  # center (0, 0)
    interest.update_center(1, (1, 0))
    interest.note_dirty((2, 0))  # was far (distance 2), now near
    for _ in range(3):
        interest.note_dirty((-1, 0))  # was near, now far
    sub = interest.subscription(1)
    assert (sub.near_entries, sub.far_entries) == (1, 3)
    assert interest.verify_index()


def test_verify_index_checks_the_tier_not_only_the_footprint(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    near, far = interest._index[(2, 0)]
    near[1] = far.pop(1)  # still indexed under the chunk, but in the wrong half
    assert not interest.verify_index()


def test_gameloop_churn_keeps_the_index_verified(engine):
    """Connect, walk across chunk boundaries, disconnect — index never drifts."""
    config = GameConfig(world_type="flat", interest_radius_chunks=2)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 160.0)
    sessions = [server.connect_player(f"bot-{index}") for index in range(6)]
    assert server.interest is not None
    subscribed = [server.interest.subscription(s.player_id) is not None for s in sessions]
    assert subscribed == [True] * 6
    assert check(server) == []
    for step in range(1, 5):
        for session in sessions[:3]:
            position = session.avatar.position
            session.move(position.x + CHUNK_SIZE, position.y, position.z)
        server.tick()
        assert check(server) == []
    # The walkers' centers followed them across the boundary crossings.
    walker = server.interest.subscription(sessions[0].player_id)
    assert walker is not None
    assert walker.center == server.interest.chunk_of(sessions[0].avatar.position)
    for session in sessions[:3]:
        server.disconnect_player(session.player_id)
    subscribed = [server.interest.subscription(s.player_id) is not None for s in sessions]
    assert subscribed == [False] * 3 + [True] * 3
    assert check(server) == []
