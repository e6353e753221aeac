"""Generated chunk-edit programs against a dense numpy model of every chunk.

A program starts from stacked default-terrain chunks, flat chunks that share
their generator's template sections, and an all-air chunk, then runs steps:
``set_block`` anywhere (one-block, multi-block and shared sections alike),
``Chunk.copy``, ``copy.deepcopy`` and pickle (protocols 4 and 5) of a run of
chunks, and a round trip through ``chunk_to_bytes``/``chunk_from_bytes``.
Every chunk has a model: a plain ``[x, y, z]`` array edited the same way.
After every step each chunk equals its model, so a write was seen by no other
chunk; the flat template and a freshly generated chunk are unchanged too.
"""

import copy
import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.world.block import BlockType
from repro.world.chunk import Chunk
from repro.world.coords import ChunkPos, chunk_origin
from repro.world.serialization import chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import DefaultTerrainGenerator, FlatTerrainGenerator

from hypothesis_profiles import examples

SEED = 5
DEFAULT_POSITIONS = [ChunkPos(0, 0), ChunkPos(1, -1)]
FLAT_POSITIONS = [ChunkPos(0, 0), ChunkPos(2, 5)]
#: a program stops keeping new chunks past this many
MAX_CHUNKS = 12

DEFAULT = DefaultTerrainGenerator(seed=SEED)
FRESH_DEFAULT = [chunk.blocks for chunk in DEFAULT.generate_chunks(DEFAULT_POSITIONS)]
FRESH_FLAT = FlatTerrainGenerator(seed=SEED).generate_chunk(FLAT_POSITIONS[0]).blocks

indices = st.integers(0, 10 ** 6)
blocks = st.sampled_from([BlockType.AIR, BlockType.STONE, BlockType.GRASS, BlockType.LAMP])
# Every height, and the sections around the surfaces more often.
heights = st.one_of(st.integers(0, 255), st.integers(56, 90))
steps = st.one_of(
    st.tuples(st.just("set"), indices, st.integers(0, 15), heights, st.integers(0, 15), blocks),
    st.tuples(st.just("copy"), indices),
    st.tuples(st.just("deepcopy"), indices, st.integers(1, 4)),
    st.tuples(st.just("pickle"), indices, st.integers(1, 4), st.sampled_from([4, 5])),
    st.tuples(st.just("bytes"), indices),
)


def _run(step, chunks, models):
    """Apply one step to ``chunks`` and their ``models``."""
    kind, index = step[0], step[1] % len(chunks)
    if kind == "set":
        _, _, lx, y, lz, block = step
        position = chunk_origin(chunks[index].position).offset(lx, y, lz)
        chunks[index].set_block(position, block)
        models[index][lx, y, lz] = int(block)
        assert chunks[index].get_block(position) == block
        assert chunks[index].dirty
        return
    if kind == "copy":
        forks, copied = [chunks[index].copy()], models[index:index + 1]
    elif kind == "bytes":
        forks, copied = [chunk_from_bytes(chunk_to_bytes(chunks[index]))], models[index:index + 1]
        assert forks[0].position == chunks[index].position
    elif kind == "deepcopy":
        forks, copied = copy.deepcopy(chunks[index:index + step[2]]), models[index:index + step[2]]
    else:
        run = chunks[index:index + step[2]]
        forks = pickle.loads(pickle.dumps(run, protocol=step[3]))
        copied = models[index:index + step[2]]
    room = max(0, MAX_CHUNKS - len(chunks))
    chunks.extend(forks[:room])
    models.extend(model.copy() for model in copied[:room])


@settings(max_examples=examples(30))
@given(program=st.lists(steps, min_size=1, max_size=25))
def test_a_chunk_edit_program_matches_its_dense_model(program):
    flat = FlatTerrainGenerator(seed=SEED)
    chunks = (
        DEFAULT.generate_chunks(DEFAULT_POSITIONS)
        + [flat.generate_chunk(position) for position in FLAT_POSITIONS]
        + [Chunk(position=ChunkPos(-3, 7))]
    )
    models = [np.array(chunk.blocks) for chunk in chunks]
    for step in program:
        _run(step, chunks, models)
        for chunk, model in zip(chunks, models):
            assert np.array_equal(chunk.blocks, model)
        assert np.array_equal(flat.generate_chunk(FLAT_POSITIONS[1]).blocks, FRESH_FLAT)
        fresh = DEFAULT.generate_chunk(DEFAULT_POSITIONS[step[1] % 2])
        assert np.array_equal(fresh.blocks, FRESH_DEFAULT[step[1] % 2])
