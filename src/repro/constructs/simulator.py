"""Synchronous step simulator for simulated constructs.

The simulator advances a construct one step at a time: every cell's new state
is computed from the *previous* step's outputs of its neighbours, which makes
the update order-independent and deterministic.  The same simulator code runs
on the game server (baseline / fallback path) and inside the offload function
(Servo's speculative path), so both produce identical state sequences.

Two implementations exist:

* :class:`ConstructSimulator` — the production simulator.  It steps through
  the construct's cached :class:`~repro.constructs.compiled.CompiledCircuit`
  (index-based arrays, integer component codes), which is the wall-clock hot
  path at cluster scale.
* :class:`ReferenceConstructSimulator` — the original, dict-based
  formulation that dispatches every cell through ``components.py``.  It is
  the executable specification: the equivalence test suite asserts the
  compiled path produces bit-identical state sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constructs.circuit import SimulatedConstruct
from repro.constructs.compiled import compile_circuit
from repro.constructs.components import next_state, output_power
from repro.constructs.state import ConstructState


@dataclass
class SimulationTrace:
    """The result of simulating a construct for several steps."""

    construct_id: int
    start_step: int
    states: list[ConstructState] = field(default_factory=list)
    #: total number of cell updates performed (work measure for cost models)
    cell_updates: int = 0

    @property
    def steps(self) -> int:
        return len(self.states)


class ConstructSimulator:
    """Steps simulated constructs forward in time (compiled hot path)."""

    def step(self, construct: SimulatedConstruct) -> ConstructState:
        """Advance the construct by one step, mutating it, and return the snapshot."""
        compile_circuit(construct).step()
        return construct.snapshot()

    def run(self, construct: SimulatedConstruct, steps: int) -> SimulationTrace:
        """Advance the construct ``steps`` times, collecting every snapshot."""
        if steps < 0:
            raise ValueError("steps must be non-negative")
        trace = SimulationTrace(construct_id=construct.construct_id, start_step=construct.step)
        compiled = compile_circuit(construct)
        for _ in range(int(steps)):
            compiled.step()
            trace.states.append(construct.snapshot())
            trace.cell_updates += construct.block_count
        return trace


class ReferenceConstructSimulator(ConstructSimulator):
    """The dict-based reference formulation (executable specification).

    Kept verbatim from the original implementation; the compiled simulator
    must match it bit for bit on every construct and step.
    """

    def step(self, construct: SimulatedConstruct) -> ConstructState:
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

    def run(self, construct: SimulatedConstruct, steps: int) -> SimulationTrace:
        if steps < 0:
            raise ValueError("steps must be non-negative")
        trace = SimulationTrace(construct_id=construct.construct_id, start_step=construct.step)
        for _ in range(int(steps)):
            trace.states.append(self.step(construct))
            trace.cell_updates += construct.block_count
        return trace


def clone_construct(construct: SimulatedConstruct) -> SimulatedConstruct:
    """Deep-copy a construct (same id, independent cell states)."""
    from repro.constructs.circuit import Cell  # local import to avoid cycle at module load

    cells = [
        Cell(
            position=cell.position,
            component=cell.component,
            state=cell.state,
            properties=dict(cell.properties),
        )
        for cell in construct.cells
    ]
    clone = SimulatedConstruct(cells, name=construct.name, construct_id=construct.construct_id)
    clone.step = construct.step
    clone.modification_counter = construct.modification_counter
    return clone
