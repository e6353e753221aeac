"""Component behaviour of stateful blocks.

Each stateful block type has a *state* (an integer) and an *output power*
derived from that state.  The simulator updates all cells synchronously: new
states are computed from the previous tick's outputs, which is how
Minecraft-like "redstone" behaves at the granularity this reproduction needs
(signal propagation one block per tick, inverters with a one-tick delay,
repeaters with configurable delay).
"""

from __future__ import annotations

from enum import Enum

from repro.world.block import BlockType

MAX_POWER = 15


class ComponentType(Enum):
    """Behavioural classes of stateful blocks."""

    POWER_SOURCE = "power_source"
    LEVER = "lever"
    WIRE = "wire"
    LAMP = "lamp"
    TORCH = "torch"
    REPEATER = "repeater"
    PISTON = "piston"
    HOPPER = "hopper"
    COMPARATOR = "comparator"
    CLOCK = "clock"


# Every component is placed as the block of its name, except a clock: a power
# source block whose cell carries clock behaviour.
_COMPONENT_TO_BLOCK = {
    component: BlockType[component.name] for component in ComponentType
    if component is not ComponentType.CLOCK
}
_COMPONENT_TO_BLOCK[ComponentType.CLOCK] = BlockType.POWER_SOURCE


def block_for_component(component: ComponentType) -> BlockType:
    """The block type placed in the world for a component."""
    return _COMPONENT_TO_BLOCK[component]


def output_power(component: ComponentType, state: int, properties: dict) -> int:
    """Output power (0..15) of a cell given its current state."""
    if component in (ComponentType.POWER_SOURCE,):
        return MAX_POWER
    if component is ComponentType.LEVER:
        return MAX_POWER if state > 0 else 0
    if component is ComponentType.WIRE:
        return max(0, min(MAX_POWER, state))
    if component is ComponentType.TORCH:
        return MAX_POWER if state > 0 else 0
    if component is ComponentType.REPEATER:
        # State encodes a shift register; the output is its lowest bit times max power.
        return MAX_POWER if (state & 1) else 0
    if component is ComponentType.COMPARATOR:
        return max(0, min(MAX_POWER, state))
    if component is ComponentType.CLOCK:
        period = max(2, int(properties.get("period", 8)))
        return MAX_POWER if (state % period) < period // 2 else 0
    # Lamps, pistons and hoppers consume power but do not emit it.
    return 0


def next_state(
    component: ComponentType,
    state: int,
    input_power: int,
    properties: dict,
) -> int:
    """New state of a cell given the strongest neighbouring output power."""
    if component is ComponentType.POWER_SOURCE:
        return MAX_POWER
    if component is ComponentType.LEVER:
        # Levers only change when a player toggles them; simulation keeps state.
        return state
    if component is ComponentType.WIRE:
        return max(0, input_power - 1)
    if component is ComponentType.LAMP:
        return 1 if input_power > 0 else 0
    if component is ComponentType.TORCH:
        # Inverter with a one-tick delay.
        return MAX_POWER if input_power == 0 else 0
    if component is ComponentType.REPEATER:
        delay = max(1, int(properties.get("delay", 1)))
        register = (state >> 1) | ((1 if input_power > 0 else 0) << (delay - 1))
        return register & ((1 << delay) - 1)
    if component is ComponentType.PISTON:
        return 1 if input_power > 0 else 0
    if component is ComponentType.HOPPER:
        # Hoppers count activations; this is the building block of item farms.
        return (state + 1) % 65536 if input_power > 0 else state
    if component is ComponentType.COMPARATOR:
        return input_power
    if component is ComponentType.CLOCK:
        period = max(2, int(properties.get("period", 8)))
        return (state + 1) % period
    raise ValueError(f"unknown component type {component!r}")
