"""Batched circuit stepping: every active circuit in one numpy step.

A :class:`~repro.constructs.compiled.CompiledCircuit` steps one construct in
a tight integer loop, paid once per circuit per tick.  The
:class:`BatchedCircuitStepper` packs the state vectors of *all* circuits it
is handed into one flat ``int64`` batch and advances every circuit with a
fixed number of vectorised numpy operations, independent of the circuit
count.  The local backend hands it only circuits whose future is unknown
(no loop found yet, :mod:`repro.constructs.loop_detection`).

Bit-identity is the contract: every arithmetic branch below mirrors
``CompiledCircuit.step`` (which itself mirrors ``components.py``) on plain
int64 integers, so a batched step produces exactly the state bytes a
per-circuit step would — the equivalence suite pins this against the
reference simulator.  A batch too small to amortise the numpy call overhead
is stepped circuit by circuit on the compiled path.

Layout: cells of all circuits are concatenated into one flat vector in batch
order (no padding — circuit sizes in real worlds vary by an order of
magnitude, so a rectangular batch would be mostly padding).  The kernel works
in a second, *kind-sorted* order: a stable sort by component kind makes each
kind one contiguous run, and the kinds a pass treats alike (wire and
comparator, torch and lever, lamp and piston) adjacent runs, so every
per-kind operation reads and writes a slice.  A step crosses that
permutation twice, one gather in (``states[order]``) and one out
(``new[inverse]``).  Neighbour inputs come from one contiguous index column
per neighbour slot (at most six: the axis neighbours), already remapped to
kind-sorted positions, against an output vector with one trailing sentinel
slot that always holds 0; a cell with fewer neighbours points its spare slots
there.  The neighbour max is the first column's gather with every other
column folded in by an in-place ``np.maximum``: a few flat passes, where a
per-row reduction over a (cells × slots) gather costs several times more.
The packed layout is cached while the circuit set and modification counters
are unchanged.  Cell *states* live in each construct's ``states``
vector: a step concatenates the batch's vectors, advances them, and hands
every construct its slice of the result — disjoint views of one fresh array,
so no two constructs share memory and no ``Cell`` object is touched.

The arithmetic itself lives in :func:`advance_states`, a pure function of a
:class:`CircuitBatchLayout` (arrays only) and a state vector.
"""

from __future__ import annotations

from itertools import chain

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

#: below this many circuits a batched step costs more than it saves.  Its
#: fixed numpy cost (≈30–37 µs) buys back ≈0.4 µs of compiled stepping per
#: cell, so it breaks even near 100 cells: 3–4 of the library's and the bench
#: fleet's 25–49-cell circuits.  One-off sweep on a 2-core Xeon, compiled vs
#: batched per step: 3 × 25 cells 28.3 vs 33.5 µs, 4 × 25 cells 37.9 vs
#: 34.2 µs, 4 × 49 cells 89.6 vs 37.9 µs.
DEFAULT_MIN_BATCH = 4

#: component kinds in kind-sorted layout order
_KIND_ORDER = (
    _WIRE, _COMPARATOR, _TORCH, _LEVER, _REPEATER, _CLOCK, _POWER_SOURCE, _LAMP, _PISTON, _HOPPER,
)
_RANK_OF_CODE = np.empty(len(_KIND_ORDER), dtype=np.int64)
_RANK_OF_CODE[list(_KIND_ORDER)] = np.arange(len(_KIND_ORDER))


class CircuitBatchLayout:
    """The state-independent arrays of one packed batch.

    Holds only numpy arrays, scalars and slices — no cells, constructs or circuits.
    ``row_starts`` and ``row_slices`` are in batch order; every other slice
    and the neighbour ``columns`` are in kind-sorted order.
    """

    __slots__ = (
        "total",
        "row_starts",
        "row_slices",
        "order",
        "inverse",
        "columns",
        "wire",
        "comparator",
        "wirelike",
        "torch",
        "binary",
        "repeater",
        "repeater_shift",
        "repeater_mask",
        "clock",
        "clock_period",
        "clock_half",
        "power",
        "switch",
        "hopper",
    )

    def __init__(self, circuits: list[CompiledCircuit]) -> None:
        codes_list: list[int] = []
        params_list: list[int] = []
        masks_list: list[int] = []
        row_starts = []
        neighbour_lists: list[tuple[int, ...]] = []  # circuit-local indices
        offset = 0
        for circuit in circuits:
            row_starts.append(offset)
            codes_list.extend(circuit._codes)
            params_list.extend(circuit._params)
            masks_list.extend(circuit._masks)
            neighbour_lists.extend(circuit._neighbours)
            offset += len(circuit._cells)
        total = offset
        self.total = total
        self.row_starts = np.asarray(row_starts, dtype=np.int64)
        self.row_slices = [slice(a, b) for a, b in zip(row_starts, row_starts[1:] + [total])]

        # ``order[p]`` is the batch index of kind-sorted position ``p``.
        ranks = _RANK_OF_CODE[np.asarray(codes_list, dtype=np.int64)]
        order = np.argsort(ranks, kind="stable")
        inverse = np.empty(total, dtype=np.int64)
        inverse[order] = np.arange(total, dtype=np.int64)
        self.order = order
        self.inverse = inverse
        bounds = np.searchsorted(ranks[order], np.arange(len(_KIND_ORDER) + 1)).tolist()
        run = {code: slice(bounds[k], bounds[k + 1]) for k, code in enumerate(_KIND_ORDER)}

        # One (cells × slots) table of batch indices; spare slots point at the
        # sentinel output (index ``total``), which is always 0, so a max over
        # the columns is correct.  ``owner`` is the cell of each neighbour entry.
        degrees = np.fromiter(map(len, neighbour_lists), dtype=np.int64, count=total)
        owner = np.repeat(np.arange(total, dtype=np.int64), degrees)
        slot = np.arange(owner.size) - (np.cumsum(degrees) - degrees)[owner]
        circuit_start = np.repeat(self.row_starts, np.diff(self.row_starts, append=total))
        gather = np.full((total, max(int(degrees.max(initial=0)), 1)), total, dtype=np.int64)
        gather[owner, slot] = (
            np.fromiter(chain.from_iterable(neighbour_lists), dtype=np.int64, count=owner.size)
            + circuit_start[owner]
        )
        # Rows into kind-sorted order, entries to kind-sorted positions.
        gather = np.append(inverse, total)[gather[order]]
        self.columns = tuple(np.ascontiguousarray(column) for column in gather.T)

        params = np.asarray(params_list, dtype=np.int64)[order]
        masks = np.asarray(masks_list, dtype=np.int64)[order]
        self.wire = run[_WIRE]
        self.comparator = run[_COMPARATOR]
        self.wirelike = slice(self.wire.start, self.comparator.stop)
        self.torch = run[_TORCH]
        self.binary = slice(self.torch.start, run[_LEVER].stop)
        self.repeater = run[_REPEATER]
        self.repeater_shift = params[self.repeater] - 1
        self.repeater_mask = masks[self.repeater]
        self.clock = run[_CLOCK]
        self.clock_period = params[self.clock]
        self.clock_half = self.clock_period // 2
        self.power = run[_POWER_SOURCE]
        self.switch = slice(run[_LAMP].start, run[_PISTON].stop)
        self.hopper = run[_HOPPER]


def advance_states(layout: CircuitBatchLayout, states: np.ndarray) -> np.ndarray:
    """One synchronous step of every packed circuit: pure integer numpy math.

    A pure function of (layout, states): no construct access, no randomness,
    no global state — bit-identical to running ``CompiledCircuit.step`` on
    each circuit individually.  ``states`` and the result are in batch order.
    """
    states = states[layout.order]

    # Output pass (mirrors the first loop of CompiledCircuit.step); lamps,
    # pistons and hoppers emit nothing and keep the zeros.
    outputs = np.zeros(layout.total + 1, dtype=np.int64)
    run = layout.wirelike
    emitted = outputs[run]
    np.maximum(states[run], 0, out=emitted)
    np.minimum(emitted, MAX_POWER, out=emitted)
    run = layout.binary
    np.multiply(states[run] > 0, MAX_POWER, out=outputs[run])
    run = layout.repeater
    np.multiply(states[run] & 1, MAX_POWER, out=outputs[run])
    run = layout.clock
    period = layout.clock_period
    np.multiply(states[run] % period < layout.clock_half, MAX_POWER, out=outputs[run])
    outputs[layout.power] = MAX_POWER

    # Neighbour max, one column at a time (the sentinel slot stays 0).
    columns = layout.columns
    input_power = outputs[columns[0]]
    for column in columns[1:]:
        np.maximum(input_power, outputs[column], out=input_power)

    # Next-state pass (mirrors the second loop of CompiledCircuit.step).
    # Lever cells keep their state, so the copy is their default.
    new_states = states.copy()
    run = layout.wire
    stepped = new_states[run]
    np.subtract(input_power[run], 1, out=stepped)
    np.maximum(stepped, 0, out=stepped)  # p - 1 if p > 1 else 0, as no input is negative
    run = layout.comparator
    new_states[run] = input_power[run]
    run = layout.torch
    np.multiply(input_power[run] == 0, MAX_POWER, out=new_states[run])
    run = layout.repeater
    bit = input_power[run] > 0
    new_states[run] = ((states[run] >> 1) | (bit << layout.repeater_shift)) & layout.repeater_mask
    run = layout.clock
    np.remainder(states[run] + 1, period, out=new_states[run])
    new_states[layout.power] = MAX_POWER
    run = layout.switch
    new_states[run] = input_power[run] > 0
    run = layout.hopper
    new_states[run] = np.where(input_power[run] > 0, (states[run] + 1) % 65536, states[run])
    return new_states[layout.inverse]


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

    def step_batch(self, circuits: list[CompiledCircuit]) -> None:
        """Advance every circuit one step.

        Semantically identical to calling ``circuit.step()`` on each circuit
        in order (the circuits are independent, so the order cannot matter).
        """
        if len(circuits) < self.min_batch_circuits:
            self.fallback_steps += len(circuits)
            for circuit in circuits:
                circuit.step()
            return
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
