"""Generated differential test of the construct-owned state vector.

A fleet of 1–12 library constructs (drawn from a small pool, so duplicates —
and with them the local backend's equivalence groups — form) is registered
with a ``LocalConstructBackend`` and driven through a generated interleaving
of everything that reads or writes ``SimulatedConstruct.states``:

* a backend tick (the batched step when at least ``min_batch`` groups are
  active — generated as 1 or ``DEFAULT_MIN_BATCH`` — and the per-circuit fallback
  otherwise; the copy into group members either way; the next loop row for
  every construct whose group's loop has closed),
* a direct ``CompiledCircuit.step``, ``cell.state = v``, ``toggle_lever`` and
  a retuned clock period or repeater delay (the edit a cached batch layout
  must not outlive),
* ``apply_row`` of one shared row object (read-only or writable) to every
  construct of a shape,
* ``on_player_modify`` alone, and remove + re-place under the reused id.

Each construct has a ``clone_construct`` twin that only
:class:`ReferenceConstructSimulator` steps and only in-place ``cell.state``
stores edit — the twin's vector is never rebound, so it cannot inherit an
aliasing bug from the code under test.  After every operation every
construct's ``snapshot()`` equals its twin's, ``verify_states()`` holds, and
a write to one construct has changed no other construct's snapshot.

Mutants this kills, hand-run and reverted.  Within the 150 generated cases:
``apply_row`` binding the row without the copy; ``step_batch`` slicing ``states`` instead of
``new_states``, or not advancing ``step``, or reporting every row a fixed
point; ``CompiledCircuit.step`` rebinding ``states`` to the old values;
``Cell.state`` returning the ``np.int64`` without ``int()``; group members
taking the representative's vector uncopied, or its step counter.  The two
repack mutants (``step_batch`` ignoring the modification counters, or
comparing only the batch length) need tick → edit → tick on the batched path
with unchanged membership, which the generator reaches in ≈1 500 cases, not
150 — the two ``@example`` rows pin the sequences it shrank them to.

Loop replay mutants, hand-run and reverted: replay handing out the row one
step off, an edit that keeps the loop, members sharing one loop table, and a
loop closed on the row after the repeat.  The third ``@example`` (an edit in
the middle of a replayed loop) kills each on its own; the regime test below
kills all but the edit that keeps the loop.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.constructs.batched import DEFAULT_MIN_BATCH
from repro.constructs.compiled import compile_circuit
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
)
from repro.constructs.simulator import ReferenceConstructSimulator, clone_construct
from repro.server.sc_engine import LOOP_SEARCH_ROWS, LocalConstructBackend
from repro.world.coords import BlockPos

from hypothesis_profiles import examples

#: (kind, parameter) pairs: few enough that a dozen draws repeat some
KINDS = {
    "clock": lambda origin, a: build_clock(period=3 + a, origin=origin, lamps=1 + a),
    "oscillator": lambda origin, a: build_oscillator(origin),
    "wire_powered": lambda origin, a: build_wire_line(2 + 3 * a, origin, powered=True),
    "wire_lever": lambda origin, a: build_wire_line(2 + 3 * a, origin, powered=False),
    "lamp_grid": lambda origin, a: build_lamp_grid(2 + a, 2, origin),
    "piston_door": lambda origin, a: build_piston_door(origin, wire_run=2 + a),
    "adder": lambda origin, a: build_adder(origin),
    "counter_farm": lambda origin, a: build_counter_farm(2 + a, origin),
    "sized": lambda origin, a: build_sized_construct(12 + 9 * a, origin, looping=bool(a)),
}
OPERATIONS = (
    "tick", "tick", "tick", "compiled_step", "set_state", "toggle_lever", "retune",
    "apply_row", "touch", "replace",
)

specs = st.tuples(st.sampled_from(sorted(KINDS)), st.integers(min_value=0, max_value=1))
#: (operation, construct selector, cell selector, value)
operations = st.tuples(
    st.sampled_from(OPERATIONS),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=0, max_value=15),
)


def build(spec, slot):
    kind, parameter = spec
    return KINDS[kind](BlockPos(48 * slot - 200, 64, 16 - 7 * slot), parameter)


class Fleet:
    """The constructs under test, their specs, their reference twins and the backend."""

    def __init__(self, fleet_specs, min_batch) -> None:
        self.backend = LocalConstructBackend(interval=1)
        self.backend._stepper.min_batch_circuits = min_batch
        self.reference = ReferenceConstructSimulator()
        self.specs = list(fleet_specs)
        self.constructs = [build(spec, slot) for slot, spec in enumerate(self.specs)]
        self.twins = [clone_construct(construct) for construct in self.constructs]
        for construct in self.constructs:
            self.backend.register_construct(construct)
        self.tick = 0

    def same_shape_as(self, index) -> list[int]:
        return [i for i, spec in enumerate(self.specs) if spec == self.specs[index]]

    def announce(self, index, position=None) -> None:
        """Tell the backend a player edited the construct, as the game loop does."""
        construct = self.constructs[index]
        self.backend.on_player_modify(
            construct.construct_id, construct.positions[0] if position is None else position
        )

    def apply(self, operation, selector, other, value) -> None:
        index = selector % len(self.constructs)
        construct, twin = self.constructs[index], self.twins[index]
        cell_index = other % construct.block_count
        before = [each.snapshot() for each in self.constructs]
        touched = {index}
        if operation == "tick":
            self.backend.tick(self.tick)
            self.tick += 1
            for each in self.twins:
                self.reference.step(each)
            touched = set(range(len(self.constructs)))
        elif operation == "compiled_step":
            compile_circuit(construct).step()
            self.reference.step(twin)
            self.announce(index)
        elif operation == "set_state":
            construct.cells[cell_index].state = value
            twin.cells[cell_index].state = value
            self.announce(index, construct.cells[cell_index].position)
        elif operation == "toggle_lever":
            levers = [c.position for c in construct.cells if c.component is ComponentType.LEVER]
            if levers:
                position = levers[other % len(levers)]
                construct.toggle_lever(position)
                twin.toggle_lever(position)
                self.announce(index, position)
        elif operation == "retune":
            tunable = {ComponentType.CLOCK: ("period", 2), ComponentType.REPEATER: ("delay", 1)}
            cells = [k for k, c in enumerate(construct.cells) if c.component in tunable]
            if cells:
                cell_index = cells[other % len(cells)]
                name, least = tunable[construct.cells[cell_index].component]
                for subject in (construct, twin):
                    subject.cells[cell_index].properties[name] = least + value % 4
                self.announce(index, construct.cells[cell_index].position)
                self.specs[index] = ("retuned", index)  # no longer the shape of its spec
        elif operation == "apply_row":
            # One row object for every construct of the shape, as one reply
            # matrix serves every structurally identical construct.
            row = np.array(
                [(value + 3 * k) % 16 for k in range(construct.block_count)], dtype=np.int64
            )
            row.flags.writeable = bool(value % 2)
            step = construct.step + value
            touched = set(self.same_shape_as(index))
            for member in sorted(touched):
                self.constructs[member].apply_row(row, step)
                for cell, cell_value in zip(self.twins[member].cells, row.tolist()):
                    cell.state = cell_value
                self.twins[member].step = step
                self.announce(member)
            if row.flags.writeable:
                row[:] = 99  # the constructs hold copies: scribbling on the row is harmless
        elif operation == "touch":
            self.announce(index, construct.positions[0].offset(dy=-1))
        else:  # replace: remove, then place another construct under the reused id
            self.backend.remove_construct(construct.construct_id)
            self.specs[index] = (sorted(KINDS)[other % len(KINDS)], value % 2)
            replacement = build(self.specs[index], index)
            replacement.construct_id = construct.construct_id
            self.constructs[index] = replacement
            self.twins[index] = clone_construct(replacement)
            self.backend.register_construct(replacement)
        for bystander, snapshot in enumerate(before):
            assert bystander in touched or self.constructs[bystander].snapshot() == snapshot, (
                f"{operation} on {construct.name} changed {self.constructs[bystander].name}"
            )

    def check(self, context) -> None:
        for construct, twin in zip(self.constructs, self.twins):
            assert construct.snapshot() == twin.snapshot(), f"{construct.name} after {context}"
        assert self.backend.verify_states(), f"verify_states() after {context}"


def run_case(fleet_specs, schedule, min_batch=DEFAULT_MIN_BATCH) -> Fleet:
    fleet = Fleet(fleet_specs, min_batch)
    fleet.check("registration")
    for step in schedule:
        fleet.apply(*step)
        fleet.check(step)
    return fleet


@settings(max_examples=examples(150))
@given(
    fleet_specs=st.lists(specs, min_size=1, max_size=12),
    schedule=st.lists(operations, max_size=24),
    min_batch=st.sampled_from((1, DEFAULT_MIN_BATCH)),
)
@example(  # a retuned clock in a batch whose membership does not change
    fleet_specs=[("clock", 0), ("oscillator", 0)],
    schedule=[("tick", 0, 0, 0), ("retune", 0, 0, 0)] + [("tick", 0, 0, 0)] * 4,
    min_batch=1,
)
@example(  # another construct under a reused id, in a batch of unchanged length
    fleet_specs=[("clock", 0), ("oscillator", 0)],
    schedule=[("tick", 0, 0, 0), ("replace", 0, 2, 1)] + [("tick", 0, 0, 0)] * 4,
    min_batch=1,
)
@example(  # every loop closed, then one of two twin clocks set to a state off its loop
    fleet_specs=[("clock", 0), ("clock", 0), ("oscillator", 0)],
    schedule=[("tick", 0, 0, 0)] * 9 + [("set_state", 0, 0, 7)] + [("tick", 0, 0, 0)] * 6,
    min_batch=1,
)
def test_constructs_match_reference_twins_under_generated_interleavings(
    fleet_specs, schedule, min_batch
):
    run_case(fleet_specs, schedule, min_batch)


def test_both_stepping_paths_and_equivalence_groups_are_reached():
    """The generated fleets are not vacuous: the three regimes they mix are real."""
    distinct = [(kind, parameter) for kind in sorted(KINDS) for parameter in (0, 1)][:12]
    ticks = [("tick", 0, 0, 0)] * 6
    stepper = run_case(distinct, ticks).backend._stepper
    assert stepper.batched_steps > 0 and stepper.fallback_steps == 0
    stepper = run_case(distinct[:3], ticks).backend._stepper
    assert stepper.batched_steps == 0 and stepper.fallback_steps > 0
    grouped = run_case([("clock", 0)] * 3 + [("wire_powered", 0)] * 2, ticks[:1])
    backend = grouped.backend
    assert sorted(len(group.members) for group in backend._stepped) == [2, 3]
    for _ in range(17):
        grouped.apply("tick", 0, 0, 0)
        grouped.check("tick")
    assert not backend._stepped, "both groups' loops must close"
    replay = backend.replay
    assert [replaying.construct for replaying in replay.replaying] == grouped.constructs[:3]
    assert replay.parked == grouped.constructs[3:], "the settled wire lines must be parked"
    assert replay.replayed_steps > 0 and replay.parked_steps > 0
    # A construct re-placed under a reused id restarts its own step counter
    # even when its state matches an older member of the group it joins.
    grouped.apply("replace", 0, sorted(KINDS).index("clock"), 0)
    for _ in range(8):
        grouped.apply("tick", 0, 0, 0)
        grouped.check("tick after replace")
    assert grouped.constructs[0].step == 8 and grouped.constructs[1].step == 26

    # Hoppers count without end: a counter farm's search gives up, and the
    # farm stays in the batch.
    farms = run_case(
        [("counter_farm", 0)] * 2 + [("counter_farm", 1)], ticks[:1] * (LOOP_SEARCH_ROWS + 2)
    )
    backend = farms.backend
    assert [group.detector for group in backend._stepped] == [None, None]
    assert not (backend.replay.replaying or backend.replay.parked or backend.replay.replayed_steps)
