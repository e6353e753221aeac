"""Generated differential test of the batched kernel against the compiled step.

Random circuits — random cells of every ``ComponentType`` in a small 3-D box,
so a cell has anywhere from zero to six neighbours — are stepped together by
``BatchedCircuitStepper(min_batch_circuits=1)`` while a twin of each is stepped
alone by ``CompiledCircuit.step``.  After every step each construct's state
vector and step counter equal its twin's.  Clock periods are
2–16, repeater delays 1–4, states 0–20, and a hopper may start at 65 534 or
65 535 so the counter wraps.  A batch holds 1–10 circuits, handed to the
stepper in a generated order, and most batches miss some kinds, so some of
the kernel's kind runs are empty.

Mutants this kills, hand-run and reverted: the neighbour max skipping the
last column; a kind-run boundary one position off; ``np.maximum`` →
``np.minimum`` in the column fold; a stale ``inverse`` (the result gathered
back through ``order``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.constructs.batched import BatchedCircuitStepper
from repro.constructs.circuit import Cell, SimulatedConstruct
from repro.constructs.compiled import compile_circuit
from repro.constructs.components import ComponentType
from construct_helpers import clone_construct
from repro.world.coords import BlockPos

from hypothesis_profiles import examples

BOX = 3
STEPS = 6
KINDS = tuple(ComponentType)

#: (cell index in the box, kind, state 0–20, parameter 0–59); the parameter
#: sets a clock's period (2–16), a repeater's delay (1–4) and, from 30 up,
#: starts a hopper at 65 534 or 65 535
cells = st.tuples(
    st.integers(0, BOX ** 3 - 1),
    st.sampled_from(KINDS),
    st.integers(0, 20),
    st.integers(0, 59),
)
circuits = st.lists(cells, min_size=1, max_size=12, unique_by=lambda cell: cell[0])


def at(x, y, z) -> int:
    """The cell index of an offset in the box."""
    return x + BOX * (y + BOX * z)


def build(spec, slot) -> SimulatedConstruct:
    origin = BlockPos(8 * slot, 64, 0)
    built = []
    for index, kind, state, parameter in spec:
        properties = {}
        if kind is ComponentType.CLOCK:
            properties["period"] = 2 + parameter % 15
        elif kind is ComponentType.REPEATER:
            properties["delay"] = 1 + parameter % 4
        elif kind is ComponentType.HOPPER and parameter >= 30:
            state = 65534 + state % 2
        z, rest = divmod(index, BOX * BOX)
        y, x = divmod(rest, BOX)
        built.append(Cell(origin.offset(x, y, z), kind, state, properties))
    return SimulatedConstruct(built)


def run_case(specs, order) -> None:
    fleet = [build(spec, slot) for slot, spec in enumerate(specs)]
    twins = [clone_construct(construct) for construct in fleet]
    batch = [compile_circuit(fleet[index]) for index in order]
    stepper = BatchedCircuitStepper(min_batch_circuits=1)
    for step in range(STEPS):
        stepper.step_batch(batch)
        for index in order:
            compile_circuit(twins[index]).step()
        for construct, twin in zip(fleet, twins):
            assert construct.step == twin.step
            np.testing.assert_array_equal(construct.states, twin.states, f"step {step}")
    assert stepper.batched_steps == STEPS * len(specs)


#: a wire whose six neighbours are all in the circuit; only the last one
#: ``BlockPos.neighbours()`` lists (dz = -1) emits, so every column counts
DEGREE_SIX = [
    (at(1, 1, 1), ComponentType.WIRE, 0, 0),
    (at(2, 1, 1), ComponentType.HOPPER, 0, 0),
    (at(0, 1, 1), ComponentType.HOPPER, 3, 30),  # 65 535: wraps once powered
    (at(1, 2, 1), ComponentType.LEVER, 0, 0),
    (at(1, 0, 1), ComponentType.REPEATER, 2, 2),  # delay 3, output bit clear
    (at(1, 1, 2), ComponentType.TORCH, 0, 0),
    (at(1, 1, 0), ComponentType.POWER_SOURCE, 0, 0),
]
#: one clock (period 5) with no neighbour at all
ISOLATED = [(at(0, 0, 0), ComponentType.CLOCK, 3, 3)]
#: a comparator fed by a clock through a wire; with the two above, a batch
#: with no lamp and no piston, so the lamp + piston group is empty
FED = [
    (at(0, 0, 0), ComponentType.CLOCK, 0, 2),
    (at(1, 0, 0), ComponentType.WIRE, 7, 0),
    (at(2, 0, 0), ComponentType.COMPARATOR, 20, 0),
    (at(2, 1, 0), ComponentType.HOPPER, 1, 59),
]


@settings(max_examples=examples(40))
@given(
    specs_and_order=st.lists(circuits, min_size=1, max_size=10).flatmap(
        lambda specs: st.tuples(st.just(specs), st.permutations(range(len(specs))))
    )
)
@example(specs_and_order=([DEGREE_SIX, ISOLATED, FED], [2, 0, 1]))
def test_batched_kernel_matches_compiled_step_on_generated_circuits(specs_and_order):
    run_case(*specs_and_order)
