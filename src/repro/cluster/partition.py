"""World partitioning: grid zones over chunk coordinates.

A cluster splits the (horizontally unbounded) voxel world into vertical
strips of chunks along the ``cx`` axis.  Each strip is one *zone*, owned by
exactly one shard.  The two outermost zones extend to infinity so every chunk
in the world has exactly one owner.

Zone-edge determinism: a chunk whose ``cx`` lies exactly on a zone boundary
belongs to the zone on the *right* (floor division), so an avatar landing
exactly on a zone edge always has a well-defined owner and two runs with the
same seed produce the same migration schedule.
"""

from __future__ import annotations

from repro.server.chunkmanager import OwnershipRegion
from repro.world.coords import CHUNK_SIZE, BlockPos

#: the width of a zone strip in chunks (16 chunks = 256 blocks)
ZONE_WIDTH_CHUNKS = 16


class WorldPartitioner:
    """Partitions the world into ``shard_count`` contiguous chunk strips.

    Interior boundaries sit at ``i * ZONE_WIDTH_CHUNKS`` for
    ``i in 1..shard_count-1``; zone 0 extends to
    ``-inf`` and the last zone to ``+inf``.  With one shard there is a single
    unbounded zone (the cluster degenerates to the paper's single-server
    deployment).
    """

    def __init__(self, shard_count: int) -> None:
        if shard_count < 1:
            raise ValueError("a cluster needs at least one shard")
        self.shard_count = int(shard_count)

    # -- ownership -------------------------------------------------------------------

    def zone_of_cx(self, cx: int) -> int:
        """The zone owning chunk column ``cx`` (clamped: outer zones are unbounded)."""
        if self.shard_count == 1:
            return 0
        index = cx // ZONE_WIDTH_CHUNKS
        return max(0, min(self.shard_count - 1, index))

    def zone_of_block(self, position: BlockPos) -> int:
        """The zone owning a block position."""
        return self.zone_of_cx(position.x // CHUNK_SIZE)

    def region(self, zone_id: int) -> OwnershipRegion:
        """The ownership region of one zone."""
        if not 0 <= zone_id < self.shard_count:
            raise ValueError(
                f"zone_id must be in [0, {self.shard_count}), got {zone_id}"
            )
        if self.shard_count == 1:
            return OwnershipRegion(min_cx=None, max_cx=None)
        width = ZONE_WIDTH_CHUNKS
        min_cx = None if zone_id == 0 else zone_id * width
        max_cx = None if zone_id == self.shard_count - 1 else (zone_id + 1) * width
        return OwnershipRegion(min_cx=min_cx, max_cx=max_cx)

    # -- spawn placement -------------------------------------------------------------

    def zone_spawn(self, zone_id: int, base: BlockPos) -> BlockPos:
        """A spawn position near the interior center of a zone.

        Unbounded outer zones use the same width-``W`` cell adjacent to their
        inner boundary, so spawns stay near the populated middle of the world.
        """
        if not 0 <= zone_id < self.shard_count:
            raise ValueError(
                f"zone_id must be in [0, {self.shard_count}), got {zone_id}"
            )
        if self.shard_count == 1:
            return base
        center_cx = zone_id * ZONE_WIDTH_CHUNKS + ZONE_WIDTH_CHUNKS // 2
        return BlockPos(center_cx * CHUNK_SIZE + CHUNK_SIZE // 2, base.y, base.z)

    def boundary_spawn(self, boundary_index: int, base: BlockPos) -> BlockPos:
        """A spawn position just left of an interior zone boundary.

        Bots spawned here wander across the boundary under the paper's
        bounded-area behaviour, exercising the player-migration protocol.
        There are ``shard_count - 1`` interior boundaries.
        """
        if self.shard_count < 2:
            raise ValueError("a single-shard world has no interior boundaries")
        if not 0 <= boundary_index < self.shard_count - 1:
            raise ValueError(
                f"boundary_index must be in [0, {self.shard_count - 1}), got {boundary_index}"
            )
        boundary_cx = (boundary_index + 1) * ZONE_WIDTH_CHUNKS
        return BlockPos(boundary_cx * CHUNK_SIZE - 2, base.y, base.z)

    def boundary_count(self) -> int:
        return self.shard_count - 1
