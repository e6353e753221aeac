"""Tests for block/chunk coordinates."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.world.coords import (
    BlockPos,
    ChunkPos,
    block_to_chunk,
    chunk_origin,
    pack_chunk,
    packed_chunk_ring,
    unpack_chunks,
)


def test_block_to_chunk_uses_floor_division():
    assert block_to_chunk(BlockPos(0, 0, 0)) == ChunkPos(0, 0)
    assert block_to_chunk(BlockPos(15, 70, 15)) == ChunkPos(0, 0)
    assert block_to_chunk(BlockPos(16, 70, 0)) == ChunkPos(1, 0)
    assert block_to_chunk(BlockPos(-1, 70, -1)) == ChunkPos(-1, -1)


def test_chunk_origin_is_minimum_corner():
    assert chunk_origin(ChunkPos(0, 0)) == BlockPos(0, 0, 0)
    assert chunk_origin(ChunkPos(2, -1)) == BlockPos(32, 0, -16)


def test_block_neighbours_are_six_axis_aligned():
    neighbours = BlockPos(1, 2, 3).neighbours()
    assert len(neighbours) == 6
    assert BlockPos(2, 2, 3) in neighbours
    assert BlockPos(1, 1, 3) in neighbours


def test_chunk_key_is_stable():
    assert ChunkPos(3, -4).key() == "chunk_3_-4"


def _ring_around(center: BlockPos, radius_blocks: float) -> set[ChunkPos]:
    chunk = block_to_chunk(center)
    ring = pack_chunk(chunk.cx, chunk.cz) + packed_chunk_ring(center.x % 16, center.z % 16, radius_blocks)
    return {ChunkPos(cx, cz) for cx, cz in zip(*unpack_chunks(ring))}


def test_packed_chunk_ring_contains_center_chunk():
    assert ChunkPos(0, 0) in _ring_around(BlockPos(8, 64, 8), 1.0)
    assert ChunkPos(-3, 2) in _ring_around(BlockPos(-40, 64, 35), 0.0)


def test_packed_chunk_ring_radius_grows_set():
    small = _ring_around(BlockPos(0, 64, 0), 16.0)
    large = _ring_around(BlockPos(0, 64, 0), 128.0)
    assert small < large


def test_packed_chunk_ring_rejects_negative_radius():
    with pytest.raises(ValueError):
        packed_chunk_ring(0, 0, -1.0)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 255), st.integers(-10 ** 6, 10 ** 6))
def test_block_always_inside_its_chunk(x, y, z):
    pos = BlockPos(x, y, z)
    chunk = block_to_chunk(pos)
    origin = chunk_origin(chunk)
    assert origin.x <= pos.x < origin.x + 16
    assert origin.z <= pos.z < origin.z + 16


# -- positions are named tuples ------------------------------------------------------------

coordinates = st.integers(-10 ** 6, 10 ** 6)


@given(coordinates, coordinates, coordinates)
def test_positions_hash_like_the_tuple_of_their_fields(x, y, z):
    """Every pinned digest stands on this: set and dict order is the tuple's."""
    assert hash(BlockPos(x, y, z)) == hash((x, y, z))
    assert hash(ChunkPos(x, z)) == hash((x, z))


@given(st.lists(st.tuples(coordinates, coordinates, coordinates), max_size=8))
def test_positions_order_like_tuples(triples):
    assert sorted(BlockPos(*triple) for triple in triples) == sorted(triples)
    assert sorted(ChunkPos(x, z) for x, _, z in triples) == sorted((x, z) for x, _, z in triples)


def test_positions_print_their_field_names():
    assert repr(BlockPos(1, -2, 3)) == "BlockPos(x=1, y=-2, z=3)"
    assert repr(ChunkPos(-4, 5)) == "ChunkPos(cx=-4, cz=5)"


@pytest.mark.parametrize("position", [BlockPos(1, 2, 3), ChunkPos(4, 5)])
def test_positions_are_immutable_and_survive_copy_and_pickle(position):
    with pytest.raises(AttributeError):
        position.x = 9
    with pytest.raises(AttributeError):
        position.extra = 9
    for clone in (copy.deepcopy(position), pickle.loads(pickle.dumps(position))):
        assert clone == position and type(clone) is type(position)


def test_a_position_equals_its_plain_tuple_and_plus_concatenates():
    """Stated so nobody is surprised: translate with ``offset``, not ``+``."""
    assert BlockPos(1, 2, 3) == (1, 2, 3)
    assert ChunkPos(1, 2) == (1, 2) and ChunkPos(1, 2) != BlockPos(1, 2, 0)
    assert BlockPos(1, 2, 3) + BlockPos(1, 1, 1) == (1, 2, 3, 1, 1, 1)
    assert BlockPos(1, 2, 3).offset(1, 1, 1) == BlockPos(2, 3, 4)
