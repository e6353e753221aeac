"""The storage rule of ``world/chunk.py``, checked on a chunk as a producer made it."""

import numpy as np

from repro.world.chunk import SECTION_SHAPE, SECTIONS


def assert_storage_rule(chunk):
    """``chunk`` has :data:`SECTIONS` sections, and a section is an array only if it needs one.

    A section of one block type is its block id; any other is a ``uint8``
    array of :data:`SECTION_SHAPE`.  Every section marked owned is an array.
    Holds for a chunk as produced; a write may leave an array of one block type.
    """
    sections = chunk._sections
    assert len(sections) == SECTIONS
    for index, section in enumerate(sections):
        if type(section) is int:
            assert 0 <= section < 256
            assert not chunk._owned >> index & 1
        else:
            assert isinstance(section, np.ndarray)
            assert section.shape == SECTION_SHAPE
            assert section.dtype == np.uint8
            assert section.min() != section.max(), f"section {index} holds one block type"
    assert chunk._owned < 1 << SECTIONS
