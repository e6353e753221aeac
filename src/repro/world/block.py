"""Block types of the modifiable virtual environment.

The world is a voxel grid.  Most blocks are static terrain (air, dirt, stone,
...).  A small set of *stateful* block types carries internal state and
participates in simulated constructs (Section II-A of the paper): power
sources, wires, lamps, torches (inverters), repeaters, pistons and hoppers.
"""

from __future__ import annotations

from enum import IntEnum


class BlockType(IntEnum):
    """Block type identifiers.

    Values are stable small integers so chunks can be stored as uint8 arrays.
    """

    AIR = 0
    STONE = 1
    DIRT = 2
    GRASS = 3
    SAND = 4
    WATER = 5
    WOOD = 6
    LEAVES = 7
    BEDROCK = 8
    SNOW = 9
    GRAVEL = 10

    # Stateful block types used by simulated constructs.
    POWER_SOURCE = 32      # battery: always emits power
    LEVER = 33             # player-toggled power source
    WIRE = 34              # propagates power with decay
    LAMP = 35              # lit when powered
    TORCH = 36             # inverter: emits power unless its input is powered
    REPEATER = 37          # forwards power with a configurable delay
    PISTON = 38            # extends when powered
    HOPPER = 39            # moves items each activation (farm building block)
    COMPARATOR = 40        # outputs the max of its side inputs
