"""Generation cost guards: a default chunk is one array program, a batch is one stack.

Function-call counts under ``cProfile`` repeat exactly on any machine, so the
bounds cannot flake.  The per-octave, per-corner, per-column code the first
guard is against made 629 Python-level calls per chunk on these positions; the
array program makes 74.  A batch is generated up to 16 chunks per pass, so its
calls per chunk are a pass's fixed calls shared out plus the few that build
each chunk: 7.4 here, against 73 for a loop that generates the chunks one by
one inside the call.
"""

import cProfile

from repro.world.coords import ChunkPos
from repro.world.terrain import DefaultTerrainGenerator

CHUNKS = 32
MAX_CALLS_PER_CHUNK = 120
MAX_CALLS_PER_STACKED_CHUNK = 12
POSITIONS = [ChunkPos(index - 7, 3 * index) for index in range(CHUNKS)]


def _calls(generate) -> int:
    profiler = cProfile.Profile()
    profiler.enable()
    generate()
    profiler.disable()
    return sum(entry.callcount for entry in profiler.getstats())


def _warm_generator() -> DefaultTerrainGenerator:
    generator = DefaultTerrainGenerator(seed=42)
    generator.generate_chunks(POSITIONS[:2])  # numpy's lazy imports happen here
    return generator


def test_default_chunk_generation_stays_under_the_call_budget():
    generator = _warm_generator()
    calls = _calls(lambda: [generator.generate_chunk(position) for position in POSITIONS])
    assert calls <= MAX_CALLS_PER_CHUNK * CHUNKS, calls / CHUNKS


def test_a_stacked_batch_stays_under_the_per_chunk_call_budget():
    generator = _warm_generator()
    calls = _calls(lambda: generator.generate_chunks(POSITIONS))
    assert calls <= MAX_CALLS_PER_STACKED_CHUNK * CHUNKS, calls / CHUNKS
