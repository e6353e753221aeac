"""Executable spec of a prefetch evaluation: sets of ``ChunkPos``, sorted per call.

This is the prefetch planner and ``ServoStorageService.prefetch_for_avatars``
as they shipped before planning moved into packed-integer space: every
avatar's view ring and extended ring become ``ChunkPos`` sets, the sets are
unioned, the union is sorted by ``(cx, cz)``, and every chunk formats its key
on every evaluation.  The rings come from the per-chunk loop in
``tests/world/reference_rings.py``.  ``test_prefetch_differential.py``
requires the production service to issue the same ``cache.prefetch`` calls in
the same order and return the same count.
"""

import importlib.util
from pathlib import Path

from repro.world.coords import CHUNK_SIZE, ChunkPos, block_to_chunk

_spec = importlib.util.spec_from_file_location(
    "reference_rings", Path(__file__).resolve().parents[1] / "world" / "reference_rings.py"
)
_rings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_rings)


def _ring(position, radius_blocks):
    centre = block_to_chunk(position)
    offsets = _rings.chunk_offsets_within_blocks(
        position.x % CHUNK_SIZE, position.z % CHUNK_SIZE, radius_blocks
    )
    return {ChunkPos(centre.cx + dx, centre.cz + dz) for dx, dz in offsets}


def plan(policy, avatar_positions):
    """``(required, prefetch)`` as the old planner partitioned them."""
    view_radius = float(policy.view_distance_blocks)
    extended_radius = view_radius + float(policy.prefetch_margin_blocks)
    required, extended = set(), set()
    for position in avatar_positions:
        required |= _ring(position, view_radius)
        extended |= _ring(position, extended_radius)
    return frozenset(required), frozenset(extended - required)


def prefetch_for_avatars(service, avatars):
    """The old evaluation, run against ``service``'s own cache, blob and metrics."""
    if not service.remote.list_keys():
        return 0
    required, prefetch = plan(service.policy, [avatar.position for avatar in avatars])
    fetched = 0
    for chunk_pos in sorted(prefetch | required, key=lambda pos: (pos.cx, pos.cz)):
        key = chunk_pos.key()
        if service.cache.is_cached(key) or not service.remote.exists(key):
            continue
        service.cache.prefetch(key)
        fetched += 1
    if fetched:
        service.metrics.increment("prefetched_objects", fetched)
    return fetched
