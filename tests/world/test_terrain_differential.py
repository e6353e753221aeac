"""Differential tests: stacked, patch-hashed terrain against the per-column executable spec.

``reference_terrain`` holds the generation code as it was before one chunk
became one array program: four hashed corners per sample, one octave and one
column at a time.  Production code hashes each grid's lattice patch once and
stacks many chunks into one pass, but performs the same IEEE operations per
element in the same order, so everything is compared exactly: ``array_equal``
on block bytes, ``==`` (never ``approx``) on noise samples.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from chunk_rule import assert_storage_rule
from reference_terrain import generate_default_chunk, layered_noise, value_noise

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, SECTION_HEIGHT
from repro.world.coords import CHUNK_SIZE, ChunkPos, chunk_origin
from repro.world.noise import LayeredNoise, sample_fields
from repro.world.terrain import CHUNKS_PER_PASS, DefaultTerrainGenerator

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
# A batch of 1-40 chunks (a pass holds 16): a patch of adjacent chunks, or
# chunks scattered anywhere.
adjacent_batches = st.builds(
    lambda cx, cz, width, count: [
        ChunkPos(cx + index % width, cz + index // width) for index in range(count)
    ],
    chunk_coords, chunk_coords, st.integers(1, 8), st.integers(1, 40),
)
scattered_batches = st.lists(st.builds(ChunkPos, chunk_coords, chunk_coords),
                             min_size=1, max_size=40)


def _check_chunk(chunk, reference, position):
    blocks = chunk.blocks
    assert np.array_equal(blocks, reference.blocks)
    assert blocks.dtype == np.uint8
    assert blocks.shape == (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
    assert_storage_rule(chunk)
    assert chunk.dirty is False
    assert chunk.position == position
    assert chunk.generated_by == reference.generated_by


@settings(max_examples=examples(100))
@given(seed=seeds, cx=chunk_coords, cz=chunk_coords)
def test_generated_chunk_equals_the_per_column_reference(seed, cx, cz):
    position = ChunkPos(cx, cz)
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(position)
    _check_chunk(chunk, generate_default_chunk(seed, position), position)


@settings(max_examples=examples(25))
@given(seed=seeds, positions=st.one_of(adjacent_batches, scattered_batches))
@example(seed=2 ** 63 + 17, positions=[ChunkPos(3 * i, -i) for i in range(CHUNKS_PER_PASS + 3)])
def test_a_stacked_batch_equals_the_per_column_reference(seed, positions):
    chunks = DefaultTerrainGenerator(seed=seed).generate_chunks(positions)
    assert len(chunks) == len(positions)
    references = [generate_default_chunk(seed, position) for position in positions]
    for chunk, reference, position in zip(chunks, references, positions):
        _check_chunk(chunk, reference, position)
    # Every chunk owns its sections: editing one leaves its batch-mates alone.
    origin = chunk_origin(positions[0])
    for y in range(0, CHUNK_HEIGHT, SECTION_HEIGHT):
        chunks[0].set_block(origin.offset(0, y, 0), BlockType.LAMP)
    for chunk, reference in zip(chunks[1:], references[1:]):
        assert np.array_equal(chunk.blocks, reference.blocks)


def _compact_axes(draw, grids, size):
    """``[grids, size]``: each row an origin plus sorted offsets in [0, size - 1]."""
    offsets = st.one_of(st.integers(0, size - 1).map(float), st.floats(0, size - 1))
    return np.array([
        draw(coords) + np.array(sorted(draw(st.lists(offsets, min_size=size, max_size=size))))
        for _ in range(grids)
    ])


@settings(max_examples=examples(100))
@given(
    seed=seeds,
    octaves=st.integers(1, 6),
    # scales from 1.5 reach the max(scale / lacunarity, 1.0) clamp within two octaves
    base_scale=st.sampled_from([1.5, 3.0, 40, 64.0, 96.0]),
    grids=st.integers(1, 3),
    n=st.integers(1, 7),
    m=st.integers(1, 5),
    data=st.data(),
)
def test_noise_samples_equal_the_per_octave_reference(
    seed, octaves, base_scale, grids, n, m, data
):
    xs = _compact_axes(data.draw, grids, n)
    zs = _compact_axes(data.draw, grids, m)
    layered = LayeredNoise(seed=seed, octaves=octaves, base_scale=base_scale)
    single = LayeredNoise(seed=seed, octaves=1, base_scale=base_scale)

    def check(xs, zs):
        layered_grids, single_grids = sample_fields([layered, single], xs, zs)
        assert layered_grids.shape == single_grids.shape == (len(xs), xs.shape[1], zs.shape[1])
        for grid, (x, z) in enumerate(zip(xs, zs)):
            grid_x, grid_z = np.meshgrid(x, z, indexing="ij")
            expected = layered_noise(seed, octaves, base_scale, grid_x, grid_z)
            assert np.all(layered_grids[grid] == expected)
            assert np.all(single_grids[grid] == value_noise(seed, base_scale, grid_x, grid_z))

    check(xs[:, :1], zs[:, :1])  # 1 x 1 grids
    check(xs, zs)  # n x m grids


def test_the_kernel_rejects_a_row_that_is_not_a_compact_grid():
    noise = LayeredNoise(seed=3, octaves=1, base_scale=1.0)
    compact = np.array([[0.0, 1.0, 2.0], [10.5, 11.5, 13.9]])  # spans 3 cells: a 5-wide patch
    samples = sample_fields([noise], compact, compact)[0]
    assert samples.shape == (2, 3, 3)
    assert float(samples.min()) >= 0.0 and float(samples.max()) < 1.0
    sparse = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 4.0]])  # spans 4 cells: a 6-wide patch
    with pytest.raises(ValueError, match="compact"):
        sample_fields([noise], sparse, compact)
    with pytest.raises(ValueError, match="compact"):
        sample_fields([noise], compact, sparse)
