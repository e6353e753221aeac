"""Compiled construct circuits: the simulator's index-based hot path.

A :class:`CompiledCircuit` flattens a construct once into parallel,
index-aligned lists in sorted cell order — integer component codes,
precomputed per-cell parameters (clock period, repeater delay/mask) and
neighbour *index* tuples — so stepping is two tight integer loops over small
lists, with no ``BlockPos`` hashing, enum comparison or ``properties.get`` per
cell.  The compiled form is cached on the construct (the cell set of a
:class:`SimulatedConstruct` never changes after construction) and shared by
every consumer: the local backend, Servo's speculative fallback and the
offload function.  Per-cell parameters are refreshed whenever the construct's
modification counter moves, so sanctioned player edits are always honoured.
Cell *states* are not compiled: a step reads the construct's ``states`` vector
with one ``tolist()`` and, if any cell changed, rebinds it to one new array, so
the construct stays the single source of truth for snapshots and requests.

The compiled step is semantically bit-identical to the reference simulator:
every arithmetic branch below mirrors ``components.py`` exactly, and the
equivalence test suite asserts identical :class:`ConstructState` sequences
across the construct library.

A step is a pure function of the state vector, so a fixed point, like any
loop of states, persists until a player edit — which is what lets backends
replay a loop instead of re-simulating it.
"""

from __future__ import annotations

import numpy as np

from repro.constructs.components import MAX_POWER, ComponentType

# Integer component codes (list indices beat enum identity checks in the hot
# loop).  The numeric values are internal to this module.
_POWER_SOURCE = 0
_LEVER = 1
_WIRE = 2
_LAMP = 3
_TORCH = 4
_REPEATER = 5
_PISTON = 6
_HOPPER = 7
_COMPARATOR = 8
_CLOCK = 9

_CODE_BY_COMPONENT = {
    ComponentType.POWER_SOURCE: _POWER_SOURCE,
    ComponentType.LEVER: _LEVER,
    ComponentType.WIRE: _WIRE,
    ComponentType.LAMP: _LAMP,
    ComponentType.TORCH: _TORCH,
    ComponentType.REPEATER: _REPEATER,
    ComponentType.PISTON: _PISTON,
    ComponentType.HOPPER: _HOPPER,
    ComponentType.COMPARATOR: _COMPARATOR,
    ComponentType.CLOCK: _CLOCK,
}

#: attribute under which the compiled form is cached on the construct
_CACHE_ATTRIBUTE = "_compiled_circuit"


class CompiledCircuit:
    """An index-based, steppable view of one :class:`SimulatedConstruct`."""

    __slots__ = (
        "construct",
        "_cells",
        "_codes",
        "_params",
        "_masks",
        "_neighbours",
        "_params_modification",
    )

    def __init__(self, construct) -> None:
        self.construct = construct
        cells = construct.cells  # sorted by position, fixed for the lifetime
        self._cells = cells
        self._codes = [_CODE_BY_COMPONENT[cell.component] for cell in cells]
        index_of, adjacency = construct.index_of, construct.adjacency()
        self._neighbours = [
            tuple(index_of[p] for p in adjacency[pos]) for pos in construct.positions
        ]
        self._params: list[int] = []
        self._masks: list[int] = []
        self._refresh_params()

    def _refresh_params(self) -> None:
        """Precompute per-cell parameters from the cells' property dicts.

        Mirrors the defaulting/clamping in ``components.py``.  Re-run whenever
        the construct's modification counter moves, so player edits that touch
        properties are picked up.
        """
        params = []
        masks = []
        for code, cell in zip(self._codes, self._cells):
            if code == _CLOCK:
                params.append(max(2, int(cell.properties.get("period", 8))))
                masks.append(0)
            elif code == _REPEATER:
                delay = max(1, int(cell.properties.get("delay", 1)))
                params.append(delay)
                masks.append((1 << delay) - 1)
            else:
                params.append(0)
                masks.append(0)
        self._params = params
        self._masks = masks
        self._params_modification = self.construct.modification_counter

    @property
    def cell_count(self) -> int:
        return len(self._cells)

    def step(self) -> None:
        """Advance the construct one step.

        The construct's state vector is read once and replaced by one new
        array if any cell changed; the step counter advances — exactly like
        the reference simulator.
        """
        construct = self.construct
        if construct.modification_counter != self._params_modification:
            self._refresh_params()
        codes = self._codes
        params = self._params
        states = construct.states.tolist()
        count = len(states)
        outputs = [0] * count
        for index in range(count):
            code = codes[index]
            state = states[index]
            if code == _WIRE or code == _COMPARATOR:
                outputs[index] = (
                    MAX_POWER if state > MAX_POWER else (state if state > 0 else 0)
                )
            elif code == _LAMP or code == _PISTON or code == _HOPPER:
                pass  # consumers emit nothing
            elif code == _TORCH or code == _LEVER:
                outputs[index] = MAX_POWER if state > 0 else 0
            elif code == _REPEATER:
                outputs[index] = MAX_POWER if (state & 1) else 0
            elif code == _CLOCK:
                period = params[index]
                outputs[index] = (
                    MAX_POWER if (state % period) < period // 2 else 0
                )
            else:  # _POWER_SOURCE
                outputs[index] = MAX_POWER

        new_states = [0] * count
        neighbours = self._neighbours
        masks = self._masks
        for index in range(count):
            input_power = 0
            for neighbour in neighbours[index]:
                power = outputs[neighbour]
                if power > input_power:
                    input_power = power
            code = codes[index]
            state = states[index]
            if code == _WIRE:
                new_state = input_power - 1 if input_power > 1 else 0
            elif code == _LAMP:
                new_state = 1 if input_power > 0 else 0
            elif code == _TORCH:
                new_state = MAX_POWER if input_power == 0 else 0
            elif code == _CLOCK:
                new_state = (state + 1) % params[index]
            elif code == _HOPPER:
                new_state = (state + 1) % 65536 if input_power > 0 else state
            elif code == _REPEATER:
                bit = 1 if input_power > 0 else 0
                new_state = ((state >> 1) | (bit << (params[index] - 1))) & masks[index]
            elif code == _COMPARATOR:
                new_state = input_power
            elif code == _PISTON:
                new_state = 1 if input_power > 0 else 0
            elif code == _LEVER:
                new_state = state
            else:  # _POWER_SOURCE
                new_state = MAX_POWER
            new_states[index] = new_state

        construct.step += 1
        if new_states != states:
            construct.states = np.array(new_states, dtype=np.int64)


def compile_circuit(construct) -> CompiledCircuit:
    """The construct's compiled form, built once and cached on the construct.

    Safe to call from any consumer (local backend, speculative fallback,
    offload function): they all share the same compiled representation, and
    the cell set of a construct never changes after construction.
    """
    compiled = getattr(construct, _CACHE_ATTRIBUTE, None)
    if compiled is None:
        compiled = CompiledCircuit(construct)
        setattr(construct, _CACHE_ATTRIBUTE, compiled)
    return compiled
