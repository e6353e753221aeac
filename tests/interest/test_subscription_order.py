"""Determinism regression: the inverse chunk index is built in sorted order.

``InterestMap`` maintains ``_index``, an insertion-ordered dict from chunk to
its ``(near, far)`` subscriber dicts.  Subscribe/unsubscribe/recenter used to
populate and prune it in set-iteration order, so the dict's key order depended
on how the footprint sets hashed.  The fixed paths iterate footprints in
sorted chunk order; these tests pin the observable key order.
"""

from __future__ import annotations

from repro.interest.subscriptions import InterestMap
from repro.world.coords import BlockPos


def _keys_for(interest: InterestMap, player_id: int) -> list:
    return [
        chunk
        for chunk, (near, far) in interest._index.items()
        if player_id in near or player_id in far
    ]


def test_subscribe_builds_the_inverse_index_in_sorted_chunk_order(make_session):
    interest = InterestMap(radius_chunks=3)
    interest.subscribe(make_session(1))
    keys = _keys_for(interest, 1)
    assert keys, "a subscription must index its whole footprint"
    assert keys == sorted(keys)


def test_recenter_appends_fresh_footprint_chunks_in_sorted_order(make_session):
    interest = InterestMap(radius_chunks=2)
    session = make_session(1)
    interest.subscribe(session)
    # A diagonal crossing adds an L-shaped strip of chunks: exactly the
    # shape whose set-difference iteration order used to leak through.
    session.avatar.position = BlockPos(8 + 3 * 16, 65, 8 + 2 * 16)
    interest.update_center(1, (3, 2))
    old_footprint = interest._footprint((0, 0))
    fresh = [chunk for chunk in interest._index if chunk not in old_footprint]
    assert fresh, "recentering must index the newly covered chunks"
    assert fresh == sorted(fresh)


def test_unsubscribe_prunes_cleanly_regardless_of_iteration_order(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    interest.subscribe(make_session(2, x=8 + 16, z=8))
    interest.unsubscribe(1)
    assert not _keys_for(interest, 1)
    survivors = list(interest._index)
    # Player 2's index entries survive, still in their original sorted order.
    assert [c for c in survivors if c in interest._footprint((1, 0))]
    interest.unsubscribe(2)
    assert not interest._index, "the last unsubscribe must empty the index"
