"""Differential tests: the array chunk ring against the per-chunk executable spec.

Both sides decide membership from the same integer gaps; the production side
takes ``sqrt`` of their exact integer sum of squares where the reference
calls ``math.hypot``, so offsets and their order are compared exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_rings import chunk_offsets_within_blocks

from repro.world.coords import (
    CHUNK_SIZE,
    ChunkPos,
    pack_chunk,
    packed_chunk_keys,
    packed_chunk_ring,
    unpack_chunks,
)

from hypothesis_profiles import examples

# Every radius a shipped configuration reaches (128 view, 176 view + margin,
# 48/64/80/96 in tests and experiments) plus the degenerate and fractional ones.
RADII = (0.0, 15.9, 33.5, 48.0, 64.0, 80.0, 96.0, 128.0, 176.0)


def _offsets(ring):
    """A ring of packed offsets as ``(dx, dz)`` pairs."""
    return list(zip(*unpack_chunks(pack_chunk(0, 0) + ring)))


@pytest.mark.parametrize("radius", RADII)
def test_ring_equals_the_reference_for_every_intra_chunk_offset(radius):
    for offset_x in range(CHUNK_SIZE):
        for offset_z in range(CHUNK_SIZE):
            assert _offsets(packed_chunk_ring(offset_x, offset_z, radius)) == (
                chunk_offsets_within_blocks(offset_x, offset_z, radius)
            ), (offset_x, offset_z)


def _near_a_reachable_distance(gap_x, gap_z, ulps):
    """A radius exactly on, or one ulp either side of, ``hypot(gap_x, gap_z)``."""
    distance = float(np.hypot(gap_x, gap_z))
    if ulps:
        distance = float(np.nextafter(distance, np.inf * ulps))
    return max(distance, 0.0)


@settings(max_examples=examples(200))
@given(
    offset_x=st.integers(0, CHUNK_SIZE - 1),
    offset_z=st.integers(0, CHUNK_SIZE - 1),
    radius=st.one_of(
        st.floats(0.0, 300.0, allow_nan=False),
        st.builds(
            _near_a_reachable_distance,
            st.integers(0, 200), st.integers(0, 200), st.sampled_from([-1, 0, 1]),
        ),
    ),
)
def test_ring_equals_the_reference_for_generated_radii(offset_x, offset_z, radius):
    assert _offsets(packed_chunk_ring(offset_x, offset_z, radius)) == (
        chunk_offsets_within_blocks(offset_x, offset_z, radius)
    )


def test_ring_is_sorted_in_chunk_order_and_read_only():
    ring = packed_chunk_ring(3, 11, 176.0)
    assert np.all(np.diff(ring) > 0)
    offsets = _offsets(ring)
    assert offsets == sorted(offsets)
    with pytest.raises(ValueError):
        ring[0] = 0


@given(cx=st.integers(-2 ** 40, 2 ** 40), cz=st.integers(-2 ** 20 + 2 ** 10, 2 ** 20 - 2 ** 10 - 1))
def test_pack_round_trips_and_names_chunks_like_chunkpos(cx, cz):
    packed = np.array([pack_chunk(cx, cz)], dtype=np.int64)
    assert unpack_chunks(packed) == ([cx], [cz])
    assert packed_chunk_keys(packed) == [ChunkPos(cx, cz).key()]


def test_packed_order_is_chunk_order_across_signs():
    chunks = [(-2, 5), (-2, -5), (0, 0), (1, -700000), (1, 700000), (-1, 0)]
    packed = sorted(pack_chunk(cx, cz) for cx, cz in chunks)
    assert list(zip(*unpack_chunks(np.array(packed)))) == sorted(chunks)


@pytest.mark.parametrize("cz", [2 ** 20 - 2 ** 10, -(2 ** 20) + 2 ** 10 - 1, 2 ** 20, -(2 ** 21)])
def test_pack_rejects_a_z_that_would_alias_another_chunk(cz):
    with pytest.raises(ValueError):
        pack_chunk(0, cz)


def test_ring_rejects_a_radius_that_would_alias_another_chunk():
    assert len(packed_chunk_ring(0, 0, 0.0)) == 1
    with pytest.raises(ValueError):
        packed_chunk_ring(0, 0, 16.0 * 2 ** 10)
