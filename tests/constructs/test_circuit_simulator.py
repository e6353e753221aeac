"""Tests for constructs, the compiled step and state snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constructs.circuit import Cell, SimulatedConstruct
from repro.constructs.components import ComponentType
from repro.constructs.library import (
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_oscillator,
    build_sized_construct,
    build_wire_line,
    standard_construct,
)
from repro.constructs.compiled import compile_circuit
from construct_helpers import cell_at, clone_construct, set_cell
from repro.constructs.state import ConstructState, state_hash
from repro.world.coords import BlockPos

from hypothesis_profiles import examples


def step_digests(construct, steps):
    """The state digest after each of ``steps`` compiled steps."""
    compiled = compile_circuit(construct)
    digests = []
    for _ in range(steps):
        compiled.step()
        digests.append(construct.snapshot().digest())
    return digests


def test_construct_requires_cells():
    with pytest.raises(ValueError):
        SimulatedConstruct([])


def test_construct_rejects_duplicate_positions():
    cell = Cell(BlockPos(0, 64, 0), ComponentType.WIRE)
    with pytest.raises(ValueError):
        SimulatedConstruct([cell, Cell(BlockPos(0, 64, 0), ComponentType.LAMP)])


def test_a_cell_is_adopted_once_and_its_state_is_a_view_of_the_vector():
    cell = Cell(BlockPos(1, 64, 0), ComponentType.WIRE, state=3)
    cell.state = 5  # unadopted: the cell's own value
    assert cell.state == 5
    construct = SimulatedConstruct([cell, Cell(BlockPos(0, 64, 0), ComponentType.LEVER)])
    assert construct.states.tolist() == [0, 5] and construct.cells[1] is cell
    cell.state = 9  # adopted: a store into the construct's vector, in place
    assert construct.states.tolist() == [0, 9]
    construct.states = np.array([1, 2], dtype=np.int64)  # as a stepper rebinds it
    assert (cell.state, type(cell.state)) == (2, int)
    assert construct.snapshot().states == {BlockPos(0, 64, 0): 1, BlockPos(1, 64, 0): 2}
    with pytest.raises(ValueError, match="another construct owns"):
        SimulatedConstruct([cell])


def test_wire_line_propagates_power_one_block_per_step():
    construct = build_wire_line(length=5)
    compiled = compile_circuit(construct)
    lamp_pos = construct.positions[-1]
    lamp_states = []
    for _ in range(8):
        compiled.step()
        lamp_states.append(cell_at(construct, lamp_pos).state)
    # The lamp eventually turns on and stays on.
    assert lamp_states[-1] == 1
    assert 0 in lamp_states  # it was off while the signal propagated


def test_wire_line_without_power_stays_dark():
    construct = build_wire_line(length=3, powered=False)
    compiled = compile_circuit(construct)
    for _ in range(6):
        compiled.step()
    lamp_pos = construct.positions[-1]
    assert cell_at(construct, lamp_pos).state == 0


def test_clock_circuit_state_is_periodic():
    construct = build_clock(period=4, lamps=1)
    digests = step_digests(construct, 24)
    # After a transient, the state sequence repeats with the clock period.
    assert digests[8:16] == digests[12:20]


def test_oscillator_toggles_lamp():
    construct = build_oscillator()
    compiled = compile_circuit(construct)
    lamp_pos = [c.position for c in construct.cells if c.component is ComponentType.LAMP][0]
    seen_states = set()
    for _ in range(16):
        compiled.step()
        seen_states.add(cell_at(construct, lamp_pos).state)
    assert seen_states == {0, 1}


def test_counter_farm_state_never_repeats():
    construct = build_counter_farm(hoppers=2)
    digests = step_digests(construct, 40)
    assert len(set(digests)) == len(digests)


def test_clone_construct_preserves_identity_and_state():
    construct = build_lamp_grid(3, 2)
    construct.construct_id, construct.step = 7, 5
    clone = clone_construct(construct)
    assert clone.construct_id == construct.construct_id
    assert clone.step == 5
    assert clone.snapshot().states == construct.snapshot().states
    clone.cells[0].state = 99
    assert construct.cells[0].state != 99


def test_apply_row_rejects_a_wrong_length_and_copies_the_row():
    construct = build_wire_line(length=4)
    before = [cell.state for cell in construct.cells]
    for values in (before[:-1], before + [0], [before]):
        with pytest.raises(ValueError, match="cells"):
            construct.apply_row(np.array(values, dtype=np.int64), step=3)
    assert [cell.state for cell in construct.cells] == before
    assert construct.step == 0
    row = np.full(construct.block_count, 7, dtype=np.int64)
    row.flags.writeable = False
    construct.apply_row(row, step=3)
    assert [cell.state for cell in construct.cells] == [7] * construct.block_count
    assert construct.step == 3
    construct.cells[0].state = 1  # the construct's vector is its own, and writable
    assert row[0] == 7 and not np.shares_memory(row, construct.states)


def test_player_modify_advances_logical_timestamp():
    construct = build_wire_line(length=2, powered=False)
    assert construct.modification_counter == 0
    set_cell(construct, construct.positions[0], 1)
    assert construct.modification_counter == 1
    construct.player_modify(BlockPos(500, 64, 500))  # nearby terrain edit
    assert construct.modification_counter == 2


def test_state_hash_is_order_independent_and_stable():
    states_a = {BlockPos(0, 0, 0): 1, BlockPos(1, 0, 0): 2}
    states_b = {BlockPos(1, 0, 0): 2, BlockPos(0, 0, 0): 1}
    assert state_hash(states_a) == state_hash(states_b)
    assert state_hash({BlockPos(0, 0, 0): 3}) != state_hash({BlockPos(0, 0, 0): 4})


def test_construct_state_equality_and_membership():
    state = ConstructState(step=3, states={BlockPos(0, 0, 0): 1})
    same = ConstructState(step=3, states={BlockPos(0, 0, 0): 1})
    other_step = ConstructState(step=4, states={BlockPos(0, 0, 0): 1})
    assert state == same
    assert state != other_step
    assert state.states == other_step.states
    assert len(state) == 1
    assert state.states[BlockPos(0, 0, 0)] == 1


def test_sized_construct_hits_target_block_count():
    for target in (50, 252, 484):
        construct = build_sized_construct(target)
        assert construct.block_count == target


def test_sized_construct_aperiodic_variant_contains_hopper():
    construct = build_sized_construct(60, looping=False)
    components = {cell.component for cell in construct.cells}
    assert ComponentType.HOPPER in components


def test_standard_construct_spreads_instances():
    first = standard_construct(0)
    second = standard_construct(1)
    assert first.anchor() != second.anchor()
    assert first.block_count == second.block_count


@settings(max_examples=examples(25))
@given(st.integers(min_value=2, max_value=12))
def test_deterministic_simulation_for_any_clock_period(period):
    """Two identical constructs simulated independently stay in lockstep."""
    a = build_clock(period=period)
    b = build_clock(period=period)
    compiled_a, compiled_b = compile_circuit(a), compile_circuit(b)
    for _ in range(3 * period):
        compiled_a.step()
        compiled_b.step()
        assert a.snapshot().states == b.snapshot().states
