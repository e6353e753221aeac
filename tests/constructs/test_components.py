"""Tests for stateful block component behaviour."""

from repro.constructs.components import (
    MAX_POWER,
    ComponentType,
    block_for_component,
    next_state,
    output_power,
)
from repro.world.block import BlockType


def test_component_block_mapping():
    assert block_for_component(ComponentType.WIRE) is BlockType.WIRE
    assert block_for_component(ComponentType.CLOCK) is BlockType.POWER_SOURCE


def test_power_source_always_emits_max_power():
    assert output_power(ComponentType.POWER_SOURCE, 0, {}) == MAX_POWER
    assert next_state(ComponentType.POWER_SOURCE, 0, 0, {}) == MAX_POWER


def test_lever_output_follows_state():
    assert output_power(ComponentType.LEVER, 1, {}) == MAX_POWER
    assert output_power(ComponentType.LEVER, 0, {}) == 0
    # Simulation never flips a lever by itself.
    assert next_state(ComponentType.LEVER, 1, 0, {}) == 1


def test_wire_decays_power_by_one():
    assert next_state(ComponentType.WIRE, 0, 15, {}) == 14
    assert next_state(ComponentType.WIRE, 5, 0, {}) == 0
    assert output_power(ComponentType.WIRE, 7, {}) == 7


def test_lamp_turns_on_when_powered():
    assert next_state(ComponentType.LAMP, 0, 3, {}) == 1
    assert next_state(ComponentType.LAMP, 1, 0, {}) == 0
    assert output_power(ComponentType.LAMP, 1, {}) == 0


def test_torch_inverts_input():
    assert next_state(ComponentType.TORCH, 0, 0, {}) == MAX_POWER
    assert next_state(ComponentType.TORCH, 15, 10, {}) == 0


def test_repeater_delays_signal_by_configured_ticks():
    properties = {"delay": 3}
    state = 0
    outputs = []
    inputs = [15, 0, 0, 0, 0]
    for power in inputs:
        state = next_state(ComponentType.REPEATER, state, power, properties)
        outputs.append(output_power(ComponentType.REPEATER, state, properties))
    # The pulse appears on the output exactly `delay` steps after the input.
    assert outputs[:2] == [0, 0]
    assert outputs[2] == MAX_POWER
    assert outputs[3] == 0


def test_piston_extends_when_powered():
    assert next_state(ComponentType.PISTON, 0, 15, {}) == 1
    assert next_state(ComponentType.PISTON, 1, 0, {}) == 0


def test_hopper_counts_only_when_powered():
    assert next_state(ComponentType.HOPPER, 7, 15, {}) == 8
    assert next_state(ComponentType.HOPPER, 7, 0, {}) == 7
    assert next_state(ComponentType.HOPPER, 65535, 15, {}) == 0


def test_comparator_passes_input_through():
    assert next_state(ComponentType.COMPARATOR, 0, 9, {}) == 9
    assert output_power(ComponentType.COMPARATOR, 9, {}) == 9


def test_clock_oscillates_with_period():
    properties = {"period": 4}
    states = []
    state = 0
    for _ in range(8):
        states.append(output_power(ComponentType.CLOCK, state, properties))
        state = next_state(ComponentType.CLOCK, state, 0, properties)
    assert states == [MAX_POWER, MAX_POWER, 0, 0, MAX_POWER, MAX_POWER, 0, 0]
