"""Generation cost guard: a default chunk is one array program, not a loop.

Function-call counts under ``cProfile`` repeat exactly on any machine, so the
bound cannot flake.  The per-octave, per-corner, per-column code this guards
against made 629 Python-level calls per chunk on these positions; the array
program makes 64.
"""

import cProfile

from repro.world.coords import ChunkPos
from repro.world.terrain import DefaultTerrainGenerator

CHUNKS = 32
MAX_CALLS_PER_CHUNK = 120


def test_default_chunk_generation_stays_under_the_call_budget():
    generator = DefaultTerrainGenerator(seed=42)
    generator.generate_chunk(ChunkPos(0, 0))  # numpy's lazy imports happen here
    profiler = cProfile.Profile()
    profiler.enable()
    for index in range(CHUNKS):
        generator.generate_chunk(ChunkPos(index - 7, 3 * index))
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    assert calls <= MAX_CALLS_PER_CHUNK * CHUNKS, calls / CHUNKS
