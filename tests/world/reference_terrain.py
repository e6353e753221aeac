"""Executable spec of default-terrain generation: one octave, one column at a time.

This is the code ``repro.world.noise`` and ``DefaultTerrainGenerator`` shipped
before generation became one array program: every octave is its own
single-octave value noise, every lattice corner is hashed by its own call, and the
surface is written by a Python loop over the 256 columns.  It is slow and
obviously right; ``test_terrain_differential.py`` requires the production code
to equal it exactly (``==`` on floats, ``array_equal`` on blocks).  The golden
``content_hash`` pins in ``test_terrain_golden.py`` keep this file from
drifting together with ``src/``.
"""

import numpy as np

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, chunk_origin
from repro.world.terrain import SEA_LEVEL


def _lattice_value(seed, ix, iz):
    seed_term = np.int64((int(seed) * 1442695040888963407) % (2 ** 62))
    with np.errstate(over="ignore"):
        h = (ix.astype(np.int64) * np.int64(374761393)
             + iz.astype(np.int64) * np.int64(668265263)
             + seed_term)
        h = (h ^ (h >> 13)) * np.int64(1274126177)
        h = h ^ (h >> 16)
    return (h & np.int64(0x7FFFFFFF)).astype(np.float64) / float(0x7FFFFFFF)


def _smoothstep(t):
    return t * t * (3.0 - 2.0 * t)


def value_noise(seed, scale, x, z):
    """Single-octave value noise at ``(x, z) / scale`` for equal-shape ``x`` and ``z``."""
    x_arr = np.asarray(x, dtype=np.float64) / scale
    z_arr = np.asarray(z, dtype=np.float64) / scale
    x0 = np.floor(x_arr).astype(np.int64)
    z0 = np.floor(z_arr).astype(np.int64)
    tx = _smoothstep(x_arr - x0)
    tz = _smoothstep(z_arr - z0)
    v00 = _lattice_value(seed, x0, z0)
    v10 = _lattice_value(seed, x0 + 1, z0)
    v01 = _lattice_value(seed, x0, z0 + 1)
    v11 = _lattice_value(seed, x0 + 1, z0 + 1)
    top = v00 * (1 - tx) + v10 * tx
    bottom = v01 * (1 - tx) + v11 * tx
    return top * (1 - tz) + bottom * tz


def layered_noise(seed, octaves, base_scale, x, z, persistence=0.5, lacunarity=2.0):
    """``LayeredNoise(...)`` sampled at ``(x, z)`` for equal-shape ``x`` and ``z``."""
    total = np.zeros_like(np.asarray(x, dtype=np.float64))
    amplitude = 1.0
    scale = base_scale
    normalizer = 0.0
    for octave in range(octaves):
        total = total + amplitude * value_noise(seed + octave * 1013, scale, x, z)
        normalizer += amplitude
        amplitude *= persistence
        scale = max(scale / lacunarity, 1.0)
    return total / normalizer


def generate_default_chunk(seed, position):
    """``DefaultTerrainGenerator(seed).generate_chunk(position)``, column by column."""
    origin = chunk_origin(position)
    xs = np.arange(origin.x, origin.x + CHUNK_SIZE)
    zs = np.arange(origin.z, origin.z + CHUNK_SIZE)
    grid_x, grid_z = np.meshgrid(xs, zs, indexing="ij")
    base = layered_noise(seed, 5, 96.0, grid_x, grid_z)
    roughness = layered_noise(seed + 7919, 3, 256.0, grid_x, grid_z)
    moisture = layered_noise(seed + 104729, 3, 160.0, grid_x, grid_z)
    height = SEA_LEVEL - 10.0 + (20.0 + 70.0 * roughness) * base
    heights = np.clip(np.round(height), 1, CHUNK_HEIGHT - 2).astype(np.int64)

    blocks = np.zeros((CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE), dtype=np.uint8)
    blocks[:, 0, :] = int(BlockType.BEDROCK)
    y_axis = np.arange(CHUNK_HEIGHT).reshape(1, CHUNK_HEIGHT, 1)
    height_grid = heights.reshape(CHUNK_SIZE, 1, CHUNK_SIZE)
    stone_mask = (y_axis >= 1) & (y_axis < height_grid - 3)
    dirt_mask = (y_axis >= height_grid - 3) & (y_axis < height_grid)
    blocks[stone_mask.nonzero()] = int(BlockType.STONE)
    blocks[dirt_mask.nonzero()] = int(BlockType.DIRT)

    for lx in range(CHUNK_SIZE):
        for lz in range(CHUNK_SIZE):
            surface_y = int(heights[lx, lz])
            wetness = float(moisture[lx, lz])
            if surface_y <= SEA_LEVEL:
                surface = BlockType.SAND if wetness < 0.6 else BlockType.GRAVEL
            elif surface_y >= SEA_LEVEL + 55:
                surface = BlockType.SNOW
            elif wetness < 0.25:
                surface = BlockType.SAND
            else:
                surface = BlockType.GRASS
            blocks[lx, surface_y, lz] = int(surface)
            if surface_y < SEA_LEVEL:
                blocks[lx, surface_y + 1:SEA_LEVEL + 1, lz] = int(BlockType.WATER)

    return Chunk(position=position, blocks=blocks, generated_by=f"default:{seed}")
