"""Executable spec of the chunk ring: one chunk at a time, by ``math.hypot``.

This is ``repro.world.coords.chunk_offsets_within_blocks`` as it shipped
before the ring became one array expression (``packed_chunk_ring``).  It is
slow and obviously right; ``test_chunk_rings.py`` requires the production
ring to unpack to exactly these offsets, in this order.
"""

import math

from repro.world.coords import CHUNK_SIZE


def chunk_offsets_within_blocks(offset_x, offset_z, radius_blocks):
    """Chunk offsets ``(dx, dz)`` whose nearest block is within ``radius_blocks``."""
    if radius_blocks < 0:
        raise ValueError("radius_blocks must be non-negative")
    chunk_radius = int(math.ceil(radius_blocks / CHUNK_SIZE)) + 1
    result = []
    for dx in range(-chunk_radius, chunk_radius + 1):
        for dz in range(-chunk_radius, chunk_radius + 1):
            origin_x = dx * CHUNK_SIZE
            origin_z = dz * CHUNK_SIZE
            # Nearest point of the chunk's footprint to the center.
            nearest_x = min(max(offset_x, origin_x), origin_x + CHUNK_SIZE - 1)
            nearest_z = min(max(offset_z, origin_z), origin_z + CHUNK_SIZE - 1)
            if math.hypot(offset_x - nearest_x, offset_z - nearest_z) <= radius_blocks:
                result.append((dx, dz))
    return result
