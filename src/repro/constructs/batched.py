"""Batched circuit stepping: every active circuit in one numpy step.

A :class:`~repro.constructs.compiled.CompiledCircuit` steps one construct in
a tight integer loop, paid once per circuit per tick.  The
:class:`BatchedCircuitStepper` packs the state vectors of *all* circuits it
is handed into one flat ``int64`` batch and advances every circuit with a
fixed number of vectorised numpy operations, independent of the circuit
count.  Fixed points (quiescence) are detected per circuit, so the backends'
skip logic works the same on either path.

Bit-identity is the contract: every arithmetic branch below mirrors
``CompiledCircuit.step`` (which itself mirrors ``components.py``) on plain
int64 integers, so a batched step produces exactly the state bytes a
per-circuit step would — the equivalence suite pins this against the
reference simulator.  A batch too small to amortise the numpy call overhead
is stepped circuit by circuit on the compiled path.

Layout: cells of all circuits are concatenated into one flat vector (no
padding — circuit sizes in real worlds vary by an order of magnitude, so a
rectangular batch would be mostly padding).  Per-component *index arrays* are
precomputed so each vectorised operation touches only the cells it applies
to; neighbour inputs come from a single flat gather against an output vector
with one trailing sentinel slot that always holds 0 (cells with fewer than
the maximum neighbour count point their spare slots there).  The packed
layout is cached while the circuit set and modification counters are
unchanged.  Cell *states* live in each construct's ``states`` vector: a step
concatenates the batch's vectors, advances them, and hands every construct its
slice of the result — disjoint views of one fresh array, so no two constructs
share memory and no ``Cell`` object is touched.

The arithmetic itself lives in :func:`advance_states`, a pure function of a
:class:`CircuitBatchLayout` (arrays only) and a state vector.
"""

from __future__ import annotations

import numpy as np

from repro.constructs.compiled import (
    _CLOCK,
    _COMPARATOR,
    _HOPPER,
    _LAMP,
    _LEVER,
    _PISTON,
    _POWER_SOURCE,
    _REPEATER,
    _TORCH,
    _WIRE,
    CompiledCircuit,
)
from repro.constructs.components import MAX_POWER

#: below this many circuits a batched step costs more than it saves
DEFAULT_MIN_BATCH = 8


class CircuitBatchLayout:
    """The state-independent arrays of one packed batch.

    Holds only numpy arrays, scalars and slices — no cells, constructs or circuits.
    """

    __slots__ = (
        "total",
        "row_starts",
        "row_slices",
        "flat_gather",
        "wirelike_idx",
        "binary_idx",
        "repeater_idx",
        "repeater_shift",
        "repeater_mask",
        "clock_idx",
        "clock_period",
        "power_idx",
        "wire_idx",
        "switch_idx",
        "torch_idx",
        "hopper_idx",
        "comparator_idx",
    )

    def __init__(self, circuits: list[CompiledCircuit]) -> None:
        codes_list: list[int] = []
        params_list: list[int] = []
        masks_list: list[int] = []
        row_starts = []
        neighbour_lists: list[tuple[int, ...]] = []
        offset = 0
        for circuit in circuits:
            row_starts.append(offset)
            codes_list.extend(circuit._codes)
            params_list.extend(circuit._params)
            masks_list.extend(circuit._masks)
            neighbour_lists.extend(
                tuple(offset + index for index in neighbours)
                for neighbours in circuit._neighbours
            )
            offset += len(circuit._cells)
        total = offset
        self.total = total
        self.row_starts = np.asarray(row_starts, dtype=np.int64)
        self.row_slices = [slice(a, b) for a, b in zip(row_starts, row_starts[1:] + [total])]

        degree = max((len(n) for n in neighbour_lists), default=0)
        degree = max(degree, 1)
        # Spare neighbour slots point at the sentinel output (index ``total``),
        # which is always 0, so a plain max over the gather axis is correct.
        gather = np.full((total, degree), total, dtype=np.int64)
        for index, neighbours in enumerate(neighbour_lists):
            gather[index, : len(neighbours)] = neighbours
        self.flat_gather = gather

        codes = np.asarray(codes_list, dtype=np.int64)
        params = np.asarray(params_list, dtype=np.int64)
        masks = np.asarray(masks_list, dtype=np.int64)
        self.wirelike_idx = np.nonzero((codes == _WIRE) | (codes == _COMPARATOR))[0]
        self.binary_idx = np.nonzero((codes == _TORCH) | (codes == _LEVER))[0]
        self.repeater_idx = np.nonzero(codes == _REPEATER)[0]
        self.repeater_shift = params[self.repeater_idx] - 1
        self.repeater_mask = masks[self.repeater_idx]
        self.clock_idx = np.nonzero(codes == _CLOCK)[0]
        self.clock_period = params[self.clock_idx]
        self.power_idx = np.nonzero(codes == _POWER_SOURCE)[0]
        self.wire_idx = np.nonzero(codes == _WIRE)[0]
        self.switch_idx = np.nonzero((codes == _LAMP) | (codes == _PISTON))[0]
        self.torch_idx = np.nonzero(codes == _TORCH)[0]
        self.hopper_idx = np.nonzero(codes == _HOPPER)[0]
        self.comparator_idx = np.nonzero(codes == _COMPARATOR)[0]


def advance_states(layout: CircuitBatchLayout, states: np.ndarray) -> np.ndarray:
    """One synchronous step of every packed circuit: pure integer numpy math.

    A pure function of (layout, states): no construct access, no randomness,
    no global state — bit-identical to running ``CompiledCircuit.step`` on
    each circuit individually.
    """
    # Output pass (mirrors the first loop of CompiledCircuit.step).
    outputs = np.zeros(layout.total + 1, dtype=np.int64)
    idx = layout.wirelike_idx
    outputs[idx] = np.clip(states[idx], 0, MAX_POWER)
    idx = layout.binary_idx
    outputs[idx] = np.where(states[idx] > 0, MAX_POWER, 0)
    idx = layout.repeater_idx
    outputs[idx] = np.where(states[idx] & 1, MAX_POWER, 0)
    idx = layout.clock_idx
    period = layout.clock_period
    outputs[idx] = np.where((states[idx] % period) < period // 2, MAX_POWER, 0)
    outputs[layout.power_idx] = MAX_POWER

    # Neighbour max via one flat gather (sentinel slot stays 0).
    input_power = outputs[layout.flat_gather].max(axis=1)

    # Next-state pass (mirrors the second loop of CompiledCircuit.step).
    # Lever cells keep their state, so the copy is their default.
    new_states = states.copy()
    idx = layout.wire_idx
    power = input_power[idx]
    new_states[idx] = np.where(power > 1, power - 1, 0)
    idx = layout.switch_idx
    new_states[idx] = (input_power[idx] > 0).astype(np.int64)
    idx = layout.torch_idx
    new_states[idx] = np.where(input_power[idx] == 0, MAX_POWER, 0)
    idx = layout.clock_idx
    new_states[idx] = (states[idx] + 1) % period
    idx = layout.hopper_idx
    new_states[idx] = np.where(
        input_power[idx] > 0, (states[idx] + 1) % 65536, states[idx]
    )
    idx = layout.repeater_idx
    bit = (input_power[idx] > 0).astype(np.int64)
    new_states[idx] = (
        (states[idx] >> 1) | (bit << layout.repeater_shift)
    ) & layout.repeater_mask
    idx = layout.comparator_idx
    new_states[idx] = input_power[idx]
    new_states[layout.power_idx] = MAX_POWER
    return new_states


class _PackedBatch:
    """A cached layout and what it was packed from."""

    __slots__ = ("circuits", "modifications", "layout")

    def __init__(self, circuits: list[CompiledCircuit], modifications: list[int]) -> None:
        self.circuits = circuits
        self.modifications = modifications
        self.layout = CircuitBatchLayout(circuits)


class BatchedCircuitStepper:
    """Steps many compiled circuits at once with vectorised integer math."""

    def __init__(self, min_batch_circuits: int = DEFAULT_MIN_BATCH) -> None:
        self.min_batch_circuits = int(min_batch_circuits)
        self._packed: _PackedBatch | None = None
        #: how many circuit-steps ran vectorised vs through the fallback path
        self.batched_steps = 0
        self.fallback_steps = 0

    def step_batch(self, circuits: list[CompiledCircuit]) -> list[bool]:
        """Advance every circuit one step; returns per-circuit fixed-point flags.

        Semantically identical to calling ``circuit.step()`` on each circuit
        in order (the circuits are independent, so the order cannot matter).
        """
        if len(circuits) < self.min_batch_circuits:
            self.fallback_steps += len(circuits)
            return [circuit.step() for circuit in circuits]
        # Honour pending player edits exactly like ``CompiledCircuit.step()``
        # before comparing, so an edit always forces a repack.
        modifications = []
        for circuit in circuits:
            modification = circuit.construct.modification_counter
            if modification != circuit._params_modification:
                circuit._refresh_params()
            modifications.append(modification)
        # Reuse the pack for the same, unedited circuit objects in the same order (list
        # ``==`` tests identity first); it holds a copy of the list, which callers reuse.
        packed = self._packed
        if (
            packed is None
            or packed.circuits != circuits
            or packed.modifications != modifications
        ):
            packed = self._packed = _PackedBatch(list(circuits), modifications)
        layout = packed.layout
        states = np.concatenate([circuit.construct.states for circuit in circuits])
        new_states = advance_states(layout, states)

        # Each construct takes its slice of the fresh result (and so keeps that
        # array alive until it is next stepped or merged) and counts the step.
        for circuit, segment in zip(circuits, layout.row_slices):
            construct = circuit.construct
            construct.states = new_states[segment]
            construct.step += 1
        self.batched_steps += len(circuits)
        # Per-circuit fixed-point flags: no changed cell in the segment.
        row_changed = np.logical_or.reduceat(new_states != states, layout.row_starts)
        return np.logical_not(row_changed).tolist()
