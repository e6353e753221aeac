"""Equivalence suite: batched numpy stepping must match the reference simulator.

``BatchedCircuitStepper`` advances every circuit it is handed in one
vectorised numpy pass; these tests pin its contract against the dict-based
reference formulation: bit-identical state sequences across the construct
library, including mixed-size batches, mid-run player edits, quiescence
wake-ups and the sub-threshold fallback path.
"""

import pytest

from repro.constructs.batched import (
    BatchedCircuitStepper,
    CircuitBatchLayout,
    advance_states,
)
from repro.constructs.compiled import compile_circuit
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
from construct_helpers import clone_construct, set_cell
from repro.constructs.simulator import ReferenceConstructSimulator

BUILDERS = {
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


def make_fleet():
    """One construct per library entry — a mixed-size batch by construction."""
    return [BUILDERS[name]() for name in sorted(BUILDERS)]


def step_batched(stepper, fleet):
    stepper.step_batch([compile_circuit(construct) for construct in fleet])


def assert_fleets_identical(fleet, reference_fleet):
    for construct, reference in zip(fleet, reference_fleet):
        snapshot, expected = construct.snapshot(), reference.snapshot()
        assert snapshot == expected
        assert snapshot.digest() == expected.digest()


def test_batched_fleet_matches_reference_across_library():
    fleet = make_fleet()
    reference_fleet = [clone_construct(construct) for construct in fleet]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    reference = ReferenceConstructSimulator()
    for _ in range(64):
        step_batched(stepper, fleet)
        for construct in reference_fleet:
            reference.step(construct)
        assert_fleets_identical(fleet, reference_fleet)
    assert stepper.batched_steps == 64 * len(fleet)
    assert stepper.fallback_steps == 0


def test_batched_matches_reference_after_mid_run_player_edits():
    fleet = make_fleet()
    reference_fleet = [clone_construct(construct) for construct in fleet]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    reference = ReferenceConstructSimulator()

    for _ in range(20):
        step_batched(stepper, fleet)
        for construct in reference_fleet:
            reference.step(construct)

    # Players edit half the fleet mid-run (toggle the first cell of each).
    for construct, reference_construct in zip(fleet[::2], reference_fleet[::2]):
        position = construct.positions[0]
        set_cell(construct, position, 1)
        set_cell(reference_construct, position, 1)

    for _ in range(40):
        step_batched(stepper, fleet)
        for construct in reference_fleet:
            reference.step(construct)
    assert_fleets_identical(fleet, reference_fleet)


@pytest.mark.parametrize("min_batch", [1, 8])
def test_a_step_never_writes_a_vector_it_replaced(min_batch):
    # A loop search keeps the vectors a step replaced as its rows, so a step
    # (batched or compiled) must rebind, never write in place.  Settling wire
    # lines next to never-settling clocks.
    fleet = [
        build_wire_line(length=4, powered=True),
        build_clock(period=4),
        build_wire_line(length=6, powered=True),
    ]
    stepper = BatchedCircuitStepper(min_batch_circuits=min_batch)
    kept = []
    for _ in range(16):
        kept.extend((construct.states, construct.states.copy()) for construct in fleet)
        step_batched(stepper, fleet)
    assert all((vector == values).all() for vector, values in kept)


def test_small_batches_fall_back_to_per_circuit_stepping():
    fleet = [build_clock(period=4), build_oscillator()]
    reference_fleet = [clone_construct(construct) for construct in fleet]
    stepper = BatchedCircuitStepper(min_batch_circuits=8)
    reference = ReferenceConstructSimulator()
    for _ in range(24):
        step_batched(stepper, fleet)
        for construct in reference_fleet:
            reference.step(construct)
    assert_fleets_identical(fleet, reference_fleet)
    assert stepper.fallback_steps == 24 * len(fleet)
    assert stepper.batched_steps == 0


def test_batch_membership_can_change_between_steps():
    fleet = make_fleet()
    reference_fleet = [clone_construct(construct) for construct in fleet]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    reference = ReferenceConstructSimulator()
    # Alternate between the full fleet and a sub-batch, as quiescence skipping
    # does; the untouched constructs simply do not advance that step.
    for round_index in range(30):
        members = fleet if round_index % 2 == 0 else fleet[:4]
        reference_members = (
            reference_fleet if round_index % 2 == 0 else reference_fleet[:4]
        )
        step_batched(stepper, members)
        for construct in reference_members:
            reference.step(construct)
        assert_fleets_identical(fleet, reference_fleet)


def test_an_edit_a_reordered_batch_and_a_replaced_construct_each_force_a_repack():
    fleet = make_fleet()
    reference_fleet = [clone_construct(construct) for construct in fleet]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    reference = ReferenceConstructSimulator()

    def step_and_compare(order):
        stepper.step_batch([compile_circuit(fleet[index]) for index in order])
        for construct in reference_fleet:
            reference.step(construct)
        assert_fleets_identical(fleet, reference_fleet)
        return stepper._packed

    order = list(range(len(fleet)))
    packed = step_and_compare(order)
    assert step_and_compare(order) is packed, "an equal batch in a new list reuses the pack"

    clock = next(i for i, c in enumerate(fleet) if c.name.startswith("clock"))
    for subject in (fleet[clock], reference_fleet[clock]):  # a player retunes the clock
        subject.cells[0].properties["period"] = 3
        subject.player_modify(subject.positions[0])
    edited = step_and_compare(order)
    assert edited is not packed, "an edit must force a repack"

    reordered = step_and_compare(order[::-1])
    assert reordered is not edited, "the same circuits in another order are another batch"

    # Re-place a different construct under a reused id, in the same batch slot.
    replacement = build_clock(period=5, lamps=1)
    replacement.construct_id = fleet[0].construct_id
    fleet[0], reference_fleet[0] = replacement, clone_construct(replacement)
    assert step_and_compare(order[::-1]) is not reordered

    # The stepper keeps its own copy of the batch: a caller that reuses and
    # mutates one list between steps still gets a repack.
    batch = [compile_circuit(construct) for construct in fleet]
    stepper.step_batch(batch)
    packed = stepper._packed
    batch.reverse()
    stepper.step_batch(batch)
    assert stepper._packed is not packed
    for construct in reference_fleet:
        reference.step(construct)
        reference.step(construct)
    assert_fleets_identical(fleet, reference_fleet)


def test_advance_states_is_pure_and_reusable():
    import numpy as np

    fleet = [build_clock(period=6, lamps=2), build_wire_line(length=5, powered=True)]
    circuits = [compile_circuit(construct) for construct in fleet]
    layout = CircuitBatchLayout(circuits)
    states = np.fromiter(
        (cell.state for circuit in circuits for cell in circuit._cells),
        dtype=np.int64,
        count=layout.total,
    )
    first = advance_states(layout, states)
    again = advance_states(layout, states)
    assert (first == again).all(), "advance_states must be a pure function"
    # The kernel never mutates its input vector or the live cells.
    assert (
        states
        == np.fromiter(
            (cell.state for circuit in circuits for cell in circuit._cells),
            dtype=np.int64,
            count=layout.total,
        )
    ).all()


# -- registry regression: stale quiescence on construct-id reuse -----------------------


@pytest.mark.parametrize("backend_interval", [1, 2])
def test_reregistered_construct_id_does_not_inherit_quiescence(backend_interval):
    from repro.server.sc_engine import LocalConstructBackend

    backend = LocalConstructBackend(interval=backend_interval)
    settled = build_wire_line(length=4, powered=True)
    backend.register_construct(settled)
    for tick in range(0, 16 * backend_interval, 1):
        backend.tick(tick)
    assert backend.replay.parked == [settled] and backend.verify_states()

    # Remove it and re-register a *different* construct under the same id.
    backend.remove_construct(settled.construct_id)
    replacement = build_clock(period=4)
    replacement.construct_id = settled.construct_id
    backend.register_construct(replacement)
    report = backend.tick(0)
    assert report.skipped_quiescent == 0, (
        "a re-used construct id must never inherit the old fixed-point status"
    )
    assert backend.verify_states()
