"""Equivalence suite: the compiled hot path must match the reference simulator.

The compiled circuit (``constructs/compiled.py``) replaces the dict-based
reference formulation on every consumer (local backend, speculative fallback,
offload function).  These tests pin the contract: bit-identical
:class:`ConstructState` sequences across the construct library, including
after mid-run player edits and around quiescence (fixed-point) skipping.
"""

import pytest

from repro.constructs.compiled import CompiledCircuit, compile_circuit
from repro.constructs.library import (
    build_adder,
    build_clock,
    build_counter_farm,
    build_lamp_grid,
    build_oscillator,
    build_piston_door,
    build_sized_construct,
    build_wire_line,
    standard_construct,
)
from construct_helpers import cell_at, clone_construct, set_cell
from repro.constructs.simulator import ReferenceConstructSimulator
from repro.server.sc_engine import LocalConstructBackend
from repro.world.coords import BlockPos

LIBRARY = {
    "clock": lambda: build_clock(period=6, lamps=3),
    "oscillator": build_oscillator,
    "wire-line-powered": lambda: build_wire_line(length=9, powered=True),
    "wire-line-lever": lambda: build_wire_line(length=9, powered=False),
    "lamp-grid": lambda: build_lamp_grid(width=4, depth=3),
    "counter-farm": build_counter_farm,
    "sized-60": lambda: build_sized_construct(60),
    "sized-aperiodic": lambda: build_sized_construct(40, looping=False),
    "adder": build_adder,
    "piston-door": build_piston_door,
    "standard": lambda: standard_construct(0),
}


def compiled_trace(construct, steps):
    compiled = compile_circuit(construct)
    states = []
    for _ in range(steps):
        compiled.step()
        states.append(construct.snapshot())
    return states


def reference_trace(construct, steps):
    reference = ReferenceConstructSimulator()
    return [reference.step(construct) for _ in range(steps)]


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_compiled_matches_reference_across_library(name):
    compiled_subject = LIBRARY[name]()
    reference_subject = clone_construct(compiled_subject)
    compiled_states = compiled_trace(compiled_subject, 64)
    reference_states = reference_trace(reference_subject, 64)
    assert compiled_states == reference_states
    assert [s.digest() for s in compiled_states] == [
        s.digest() for s in reference_states
    ]


@pytest.mark.parametrize("name", ["adder", "piston-door", "wire-line-lever", "clock"])
def test_compiled_matches_reference_after_mid_run_player_edit(name):
    compiled_subject = LIBRARY[name]()
    reference_subject = clone_construct(compiled_subject)

    assert compiled_trace(compiled_subject, 20) == reference_trace(reference_subject, 20)
    # A player toggles/retunes the first cell mid-run on both copies.
    edit_position = compiled_subject.positions[0]
    set_cell(compiled_subject, edit_position, 1)
    set_cell(reference_subject, edit_position, 1)
    assert compiled_trace(compiled_subject, 40) == reference_trace(reference_subject, 40)


def test_compile_circuit_is_cached_per_construct():
    construct = build_clock()
    assert compile_circuit(construct) is compile_circuit(construct)
    assert isinstance(compile_circuit(construct), CompiledCircuit)


def test_a_settled_compiled_step_keeps_its_vector():
    # A powered wire line settles: source -> wires -> lamp reach steady state,
    # after which a step allocates nothing (pure function of the state vector).
    construct = build_wire_line(length=4, powered=True)
    compiled = compile_circuit(construct)
    vectors = []
    for _ in range(16):
        compiled.step()
        vectors.append(construct.states)
    assert vectors[-1] is vectors[-2] and construct.step == 16
    # A clock never settles: every step rebinds.
    ticking = compile_circuit(build_clock(period=4))
    ticking.step()
    before = ticking.construct.states
    ticking.step()
    assert ticking.construct.states is not before


def test_compiled_params_refresh_after_player_modify():
    construct = build_clock(period=8, lamps=1)
    compiled = compile_circuit(construct)
    for _ in range(3):
        compiled.step()
    # A sanctioned player edit may retune properties; the modification
    # counter moves and the compiled params must follow.
    clock_cell = construct.cells[0]
    clock_cell.properties["period"] = 3
    construct.player_modify(clock_cell.position)
    reference_subject = clone_construct(construct)
    assert compiled_trace(construct, 24) == reference_trace(reference_subject, 24)


# -- quiescence skipping through the local backend ------------------------------------


def test_quiescent_construct_skips_resimulation_but_reports_full_work():
    backend = LocalConstructBackend(interval=1)
    construct = build_piston_door()
    backend.register_construct(construct)
    # Run until the door settles.
    for tick in range(12):
        report = backend.tick(tick)
    assert report.skipped_quiescent == 1
    assert report.simulated_locally == 1, "cost models must still see the work"
    assert report.advanced == 1
    # Virtual time is unchanged: the step counter advances through skips.
    assert construct.step == 12


def test_quiescence_wakeup_matches_reference_after_lever_toggle():
    backend = LocalConstructBackend(interval=1)
    door = build_piston_door()
    reference_door = clone_construct(door)
    backend.register_construct(door)

    reference_simulator = ReferenceConstructSimulator()
    for tick in range(12):
        backend.tick(tick)
        reference_simulator.step(reference_door)
    assert door.snapshot() == reference_door.snapshot()

    # Toggle the lever: the backend must wake the construct and re-simulate.
    lever_position = door.positions[0]
    backend.on_player_modify(door.construct_id, lever_position)
    cell_at(door, lever_position).state = 1
    set_cell(reference_door, lever_position, 1)

    woke_reports = []
    for tick in range(12, 24):
        woke_reports.append(backend.tick(tick))
        reference_simulator.step(reference_door)
    assert door.snapshot() == reference_door.snapshot()
    # The tick right after the edit must not have skipped.
    assert woke_reports[0].skipped_quiescent == 0
    # The pistons actually extended after the toggle.
    piston_states = [
        cell.state
        for cell in door.cells
        if cell.component.value == "piston"
    ]
    assert all(state == 1 for state in piston_states)


def test_quiescent_group_members_keep_step_counters_in_lockstep():
    backend = LocalConstructBackend(interval=1)
    first = build_wire_line(length=5, powered=True)
    second = build_wire_line(length=5, powered=True)
    backend.register_construct(first)
    backend.register_construct(second)
    for tick in range(20):
        report = backend.tick(tick)
    assert report.skipped_quiescent == 2
    assert first.step == second.step == 20
    assert first.snapshot().states == second.snapshot().states
