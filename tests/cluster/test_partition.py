"""Tests for world partitioning: zones, ownership regions and spawn placement."""

import pytest

from repro.cluster.partition import ZONE_WIDTH_CHUNKS as W, WorldPartitioner
from repro.server.chunkmanager import OwnershipRegion
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos


def test_partitioner_validates_arguments():
    with pytest.raises(ValueError):
        WorldPartitioner(0)


def test_single_shard_owns_everything():
    partitioner = WorldPartitioner(1)
    region = partitioner.region(0)
    for cx in (-1000, 0, 1000):
        assert partitioner.zone_of_cx(cx) == 0
        assert region.contains(ChunkPos(cx, 5))
    assert partitioner.boundary_count() == 0
    with pytest.raises(ValueError):
        partitioner.boundary_spawn(0, BlockPos(0, 65, 0))


def test_zones_are_contiguous_strips_with_unbounded_edges():
    partitioner = WorldPartitioner(4)
    # Interior boundaries at cx = W, 2W, 3W.
    assert partitioner.zone_of_cx(-500) == 0
    assert partitioner.zone_of_cx(W - 1) == 0
    assert partitioner.zone_of_cx(W) == 1
    assert partitioner.zone_of_cx(2 * W - 1) == 1
    assert partitioner.zone_of_cx(2 * W) == 2
    assert partitioner.zone_of_cx(3 * W) == 3
    assert partitioner.zone_of_cx(9999) == 3


def test_every_chunk_has_exactly_one_owner():
    partitioner = WorldPartitioner(3)
    regions = [partitioner.region(zone) for zone in range(partitioner.shard_count)]
    for cx in range(-W - 4, 3 * W + 4):
        position = ChunkPos(cx, 7)
        owners = [zone for zone, region in enumerate(regions) if region.contains(position)]
        # The spellings of "who owns this" agree, negatives included.
        assert owners == [partitioner.zone_of_cx(cx)]
        assert owners == [partitioner.zone_of_block(BlockPos(cx * CHUNK_SIZE + 5, 65, -3))]


def test_block_exactly_on_zone_edge_belongs_to_the_right_zone():
    partitioner = WorldPartitioner(2)
    boundary_x = W * CHUNK_SIZE  # first block of the boundary chunk
    assert partitioner.zone_of_block(BlockPos(boundary_x, 65, 0)) == 1
    assert partitioner.zone_of_block(BlockPos(boundary_x - 1, 65, 0)) == 0
    # The zone regions agree with zone_of_block on the edge.
    assert partitioner.region(1).contains(ChunkPos(W, 0))
    assert not partitioner.region(0).contains(ChunkPos(W, 0))


def test_region_validates_zone_id():
    partitioner = WorldPartitioner(2)
    with pytest.raises(ValueError):
        partitioner.region(2)
    with pytest.raises(ValueError):
        partitioner.zone_spawn(-1, BlockPos(0, 65, 0))


def test_ownership_region_contains():
    region = OwnershipRegion(min_cx=4, max_cx=8)
    assert not region.contains(ChunkPos(3, 0))
    assert region.contains(ChunkPos(4, 0))
    assert region.contains(ChunkPos(7, -2))
    assert not region.contains(ChunkPos(8, 0))


def test_spawns_land_in_their_zone():
    base = BlockPos(8, 65, 8)
    partitioner = WorldPartitioner(4)
    for zone in range(4):
        spawn = partitioner.zone_spawn(zone, base)
        assert partitioner.zone_of_block(spawn) == zone
        assert spawn.y == base.y
    for boundary in range(partitioner.boundary_count()):
        spawn = partitioner.boundary_spawn(boundary, base)
        # Boundary spawns sit just left of the edge, owned by the left zone.
        assert partitioner.zone_of_block(spawn) == boundary
        edge_x = (boundary + 1) * W * CHUNK_SIZE
        assert 0 < edge_x - spawn.x <= CHUNK_SIZE


def test_single_shard_spawn_is_the_base_spawn():
    base = BlockPos(8, 65, 8)
    assert WorldPartitioner(1).zone_spawn(0, base) == base
