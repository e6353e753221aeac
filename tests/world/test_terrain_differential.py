"""Differential tests: array-program terrain against the per-column executable spec.

``reference_terrain`` holds the generation code as it was before one chunk
became one array program.  Both sides perform the same IEEE operations per
element in the same order, so everything is compared exactly: ``array_equal``
on block bytes, ``==`` (never ``approx``) on noise samples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_terrain import generate_default_chunk, layered_noise, value_noise

from repro.world.chunk import CHUNK_HEIGHT
from repro.world.coords import CHUNK_SIZE, ChunkPos
from repro.world.noise import LayeredNoise, ValueNoise2D
from repro.world.terrain import DefaultTerrainGenerator

from hypothesis_profiles import examples

seeds = st.one_of(
    st.sampled_from([0, -1, 2 ** 31 - 1, 2 ** 31, 2 ** 63 + 17]),
    st.integers(-2 ** 40, 2 ** 40),
)
chunk_coords = st.integers(-10 ** 6, 10 ** 6)
# Block coordinates a player could stand on, whole and fractional.
coords = st.one_of(
    st.integers(-16 * 10 ** 6, 16 * 10 ** 6).map(float),
    st.floats(-16e6, 16e6, allow_nan=False, width=64),
)


@settings(max_examples=examples(100))
@given(seed=seeds, cx=chunk_coords, cz=chunk_coords)
def test_generated_chunk_equals_the_per_column_reference(seed, cx, cz):
    position = ChunkPos(cx, cz)
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(position)
    reference = generate_default_chunk(seed, position)
    blocks = chunk.blocks
    assert np.array_equal(blocks, reference.blocks)
    assert blocks.dtype == np.uint8
    assert blocks.shape == (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
    assert blocks.flags.c_contiguous and blocks.flags.writeable and blocks.flags.owndata
    assert chunk.dirty is False
    assert chunk.position == position
    assert chunk.generated_by == reference.generated_by


def _same(sample, expected):
    assert np.shape(sample) == np.shape(expected)
    assert np.all(sample == expected)


@settings(max_examples=examples(100))
@given(
    seed=seeds,
    octaves=st.integers(1, 6),
    # scales from 1.5 reach the max(scale / lacunarity, 1.0) clamp within two octaves
    base_scale=st.sampled_from([1.5, 3.0, 40, 64.0, 96.0]),
    xs=st.lists(coords, min_size=1, max_size=7),
    zs=st.lists(coords, min_size=1, max_size=5),
)
def test_noise_samples_equal_the_per_octave_reference(seed, octaves, base_scale, xs, zs):
    layered = LayeredNoise(seed=seed, octaves=octaves, base_scale=base_scale)
    single = ValueNoise2D(seed=seed, scale=base_scale)

    def check(x, z, ref_x, ref_z):
        _same(layered.sample(x, z), layered_noise(seed, octaves, base_scale, ref_x, ref_z))
        _same(single.sample(x, z), value_noise(seed, base_scale, ref_x, ref_z))

    check(xs[0], zs[0], xs[0], zs[0])  # Python scalars
    n = min(len(xs), len(zs))
    line_x, line_z = np.array(xs[:n]), np.array(zs[:n])
    check(line_x, line_z, line_x, line_z)  # 1-D arrays
    grid_x, grid_z = np.meshgrid(np.array(xs), np.array(zs), indexing="ij")
    check(grid_x, grid_z, grid_x, grid_z)  # equal-shape grids
    check(grid_x[:, :1], grid_z[:1, :], grid_x, grid_z)  # (n, 1) against (1, m)
    check(np.array(xs), zs[0], np.array(xs), np.full(len(xs), zs[0]))  # array against scalar


def test_scalar_samples_are_numpy_scalars_in_range():
    sample = LayeredNoise(seed=3).sample(1.25, -7.5)
    assert isinstance(sample, np.float64)
    assert 0.0 <= sample < 1.0
