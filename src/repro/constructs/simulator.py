"""The reference step simulator for simulated constructs.

A step advances a construct synchronously: every cell's new state is computed
from the *previous* step's outputs of its neighbours, which makes the update
order-independent and deterministic.  Production code steps a construct
through its cached :class:`~repro.constructs.compiled.CompiledCircuit`
(``compile_circuit(construct).step()``) or the batched kernel.

:class:`ReferenceConstructSimulator` is the original, dict-based formulation
that dispatches every cell through ``components.py``.  It is the executable
specification: the equivalence tests and the benchmark's replay check assert
the compiled paths produce bit-identical state sequences.
"""

from __future__ import annotations

from repro.constructs.circuit import SimulatedConstruct
from repro.constructs.components import next_state, output_power
from repro.constructs.state import ConstructState


class ReferenceConstructSimulator:
    """The dict-based reference formulation (executable specification).

    Kept verbatim from the original implementation; the compiled simulator
    must match it bit for bit on every construct and step.
    """

    def step(self, construct: SimulatedConstruct) -> ConstructState:
        """Advance the construct by one step, mutating it, and return the snapshot."""
        cells = construct.cells
        adjacency = construct.adjacency()
        outputs = {
            cell.position: output_power(cell.component, cell.state, cell.properties)
            for cell in cells
        }
        new_states: dict = {}
        for cell in cells:
            neighbours = adjacency[cell.position]
            input_power = 0
            for neighbour_pos in neighbours:
                power = outputs[neighbour_pos]
                if power > input_power:
                    input_power = power
            new_states[cell.position] = next_state(
                cell.component, cell.state, input_power, cell.properties
            )
        for cell in cells:
            cell.state = new_states[cell.position]
        construct.step += 1
        return construct.snapshot()
