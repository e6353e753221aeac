"""Simulated constructs (SCs).

Simulated constructs are the player-built "programs" of an MVE: collections of
stateful blocks (power sources, wires, lamps, torches, repeaters, pistons,
hoppers) whose state evolves every simulation step.  They are the dominant
source of server load in the paper's key experiment and the unit of
computation Servo offloads to serverless functions.

The package provides the component behaviour rules, the construct container,
the reference step simulator, state snapshots/hashing, and a library of
construct builders (clocks, oscillators, wire lines, lamp grids, farms and the
sized constructs of Section IV-G).
"""

from repro.constructs.circuit import Cell, SimulatedConstruct
from repro.constructs.compiled import CompiledCircuit, compile_circuit
from repro.constructs.components import ComponentType
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
from repro.constructs.simulator import ReferenceConstructSimulator
from repro.constructs.state import ConstructState, state_hash

__all__ = [
    "ComponentType",
    "Cell",
    "SimulatedConstruct",
    "CompiledCircuit",
    "compile_circuit",
    "ReferenceConstructSimulator",
    "ConstructState",
    "state_hash",
    "build_adder",
    "build_clock",
    "build_oscillator",
    "build_piston_door",
    "build_wire_line",
    "build_lamp_grid",
    "build_counter_farm",
    "build_sized_construct",
    "standard_construct",
]
