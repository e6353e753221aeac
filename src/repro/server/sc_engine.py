"""Construct backends: who simulates the simulated constructs.

The game loop delegates construct simulation to a pluggable backend:

* :class:`LocalConstructBackend` — the baseline behaviour of Opencraft and
  Minecraft: every construct is simulated on the server, every other tick
  (which is what makes their tick-duration distributions bimodal).
* Servo's speculative/offloading backend lives in
  :mod:`repro.core.speculative` and implements the same interface.

Backends really advance construct state (using
:class:`repro.constructs.batched.BatchedCircuitStepper`), so block/lamp states are
functionally correct in every variant; the *cost* of the work they report is
translated into tick time by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.constructs.batched import BatchedCircuitStepper
from repro.constructs.circuit import ConstructIds, SimulatedConstruct
from repro.constructs.compiled import CompiledCircuit, compile_circuit
from repro.constructs.simulator import clone_construct
from repro.world.coords import BlockPos


@dataclass
class ConstructTickReport:
    """What the construct backend did during one tick.

    ``simulated_locally`` / ``merged_speculative`` report the work the
    *simulated server* performed — the cost model's inputs — so they keep
    counting quiescent constructs whose re-simulation the host skipped.
    ``skipped_quiescent`` separately reports how many of those advances were
    satisfied by the fixed-point skip (a wall-clock optimisation of the
    simulator host, invisible in virtual time).
    """

    total_constructs: int = 0
    simulated_locally: int = 0
    merged_speculative: int = 0
    #: constructs that advanced one step this tick (by any path)
    advanced: int = 0
    #: advances satisfied without re-simulation (state vector at a fixed point)
    skipped_quiescent: int = 0
    #: True if this tick was a construct-simulation tick for the backend
    construct_tick: bool = False


@dataclass
class ConstructTickPlan:
    """A backend tick split at its pure-compute boundary.

    ``circuits`` is the batch of independent compiled circuits the tick must
    advance by exactly one step — pure integer compute with no randomness —
    and ``finish`` takes the resulting fixed-point flags in circuit order.
    Everything that touches shared simulation state (RNG streams, metrics,
    speculation records) stays inside ``begin_tick``/``finish``.
    """

    circuits: list[CompiledCircuit]
    finish: Callable[[list[bool]], ConstructTickReport]
    #: the backend's own stepper (only a plan without circuits may omit it)
    stepper: Optional[BatchedCircuitStepper] = None

    def step_inline(self) -> list[bool]:
        """Advance the plan's circuits one step; returns the fixed-point flags."""
        if not self.circuits:
            return []
        return self.stepper.step_batch(self.circuits)


class ConstructBackend:
    """Interface the game loop uses to drive construct simulation, over a shared registry."""

    def __init__(self) -> None:
        self._constructs: dict[int, SimulatedConstruct] = {}
        self._numbering = ConstructIds()

    def register_construct(self, construct: SimulatedConstruct) -> None:
        raise NotImplementedError

    def _file(self, construct: SimulatedConstruct) -> int:
        """Number ``construct`` unless it has an id and file it under that id, never a taken one."""
        construct_id = self._numbering.number(construct)
        if construct_id in self._constructs:
            raise ValueError(f"construct id {construct_id} is already registered")
        self._constructs[construct_id] = construct
        return construct_id

    def remove_construct(self, construct_id: int) -> None:
        raise NotImplementedError

    def constructs(self) -> list[SimulatedConstruct]:
        return [self._constructs[key] for key in sorted(self._constructs)]

    def on_player_modify(self, construct_id: int, position: BlockPos) -> None:
        """Called when a player modifies a construct (or terrain adjacent to it)."""
        raise NotImplementedError

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Split the tick at its pure-compute boundary (see ConstructTickPlan)."""
        raise NotImplementedError

    def tick(self, tick_index: int) -> ConstructTickReport:
        """Advance construct simulation for one game tick."""
        plan = self.begin_tick(tick_index)
        return plan.finish(plan.step_inline())

    def verify_states(self) -> bool:
        """True when every registered construct's state vector keeps its invariants.

        Holds between ticks: each ``states`` is a writable 1-D ``int64`` array
        of ``block_count`` values, every ``cell.state`` is a plain ``int``
        equal to its slot, no two constructs' vectors share memory, and every
        construct parked in ``_quiescent`` really is at a fixed point (one
        compiled step of a clone changes nothing).
        """
        constructs = {construct.construct_id: construct for construct in self.constructs()}
        for construct in constructs.values():
            states = construct.states
            if not (
                isinstance(states, np.ndarray)
                and states.dtype == np.int64
                and states.shape == (construct.block_count,)
                and states.flags.writeable
            ):
                return False
            seen = [cell.state for cell in construct.cells]
            if seen != states.tolist() or any(type(value) is not int for value in seen):
                return False
        vectors = [construct.states for construct in constructs.values()]
        if any(
            np.shares_memory(first, second)
            for index, first in enumerate(vectors)
            for second in vectors[index + 1 :]
        ):
            return False
        return all(
            compile_circuit(clone_construct(constructs[construct_id])).step()
            for construct_id in sorted(self._quiescent)
        )


class LocalConstructBackend(ConstructBackend):
    """Simulate every construct on the server, every ``interval`` ticks.

    Identical constructs (same structure and state) share one functional
    simulation: their state sequences are provably equal, so the backend
    simulates one representative per equivalence class and applies the result
    to all members.  The *cost* reported still counts every construct, because
    the baseline servers do the work per construct.
    """

    def __init__(self, interval: int = 2) -> None:
        if interval < 1:
            raise ValueError("construct simulation interval must be at least 1")
        super().__init__()
        self.interval = int(interval)
        self._stepper = BatchedCircuitStepper()
        self._groups: list[list[int]] = []
        self._groups_dirty = True
        #: construct ids whose state vector reached a fixed point; they are
        #: not re-simulated until a player edit wakes them
        self._quiescent: set[int] = set()

    # -- registry -------------------------------------------------------------------

    def register_construct(self, construct: SimulatedConstruct) -> None:
        construct_id = self._file(construct)
        # Compile eagerly: registration is the cold path, ticks are the hot one.
        compile_circuit(construct)
        # A re-used construct id (removed, then re-placed) must never inherit
        # the old construct's fixed-point status.
        self._quiescent.discard(construct_id)
        self._groups_dirty = True

    def remove_construct(self, construct_id: int) -> None:
        self._constructs.pop(construct_id, None)
        self._quiescent.discard(construct_id)
        self._groups_dirty = True

    def on_player_modify(self, construct_id: int, position: BlockPos) -> None:
        construct = self._constructs.get(construct_id)
        if construct is not None:
            construct.player_modify(position)
            self._quiescent.discard(construct_id)
            self._groups_dirty = True

    # -- simulation -----------------------------------------------------------------

    def _equivalence_key(self, construct: SimulatedConstruct) -> tuple:
        anchor = construct.anchor()
        return tuple(
            (
                cell.position.x - anchor.x,
                cell.position.y - anchor.y,
                cell.position.z - anchor.z,
                cell.component.value,
                state,
                tuple(sorted(cell.properties.items())),
            )
            for cell, state in zip(construct.cells, construct.states.tolist())
        )

    def _rebuild_groups(self) -> None:
        """Group identical constructs: their state sequences are provably equal.

        Grouping is recomputed only when a construct is added, removed or
        modified by a player; members of a group evolve in lockstep otherwise.
        """
        groups: dict[tuple, list[int]] = {}
        for construct in self.constructs():
            groups.setdefault(self._equivalence_key(construct), []).append(
                construct.construct_id
            )
        self._groups = list(groups.values())
        self._groups_dirty = False
        # Representatives may have changed; re-detect fixed points from scratch
        # (costs one extra simulated step per group, only after a change).
        self._quiescent.clear()

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Phase 1 of the tick: quiescent skips and batch collection.

        Returns the active representatives' circuits as the plan's pure
        batch; ``finish`` applies the fixed-point flags and propagates the
        representatives' states to their group members.
        """
        report = ConstructTickReport(total_constructs=len(self._constructs))
        if tick_index % self.interval != 0 or not self._constructs:
            report.construct_tick = tick_index % self.interval == 0
            return ConstructTickPlan(circuits=[], finish=lambda _flags: report)
        report.construct_tick = True
        if self._groups_dirty:
            self._rebuild_groups()

        constructs = self._constructs
        quiescent = self._quiescent
        active_groups: list[list[int]] = []
        for members in self._groups:
            if members[0] in quiescent:
                # Fixed point: the states are provably what re-simulation
                # would produce, so only the step counters advance.
                for construct_id in members:
                    constructs[construct_id].step += 1
                report.skipped_quiescent += len(members)
            else:
                active_groups.append(members)
        # One vectorised step for every active representative; groups are
        # independent, so batching them is equivalent to stepping in order.
        circuits = [
            compile_circuit(constructs[members[0]]) for members in active_groups
        ]

        def finish(fixed_points: list[bool]) -> ConstructTickReport:
            for members, fixed_point in zip(active_groups, fixed_points):
                if fixed_point:
                    quiescent.add(members[0])
                # Members take a copy of the representative's vector and
                # advance their own step counters: equal states do not mean
                # equal ages (a construct placed later can join the group).
                states = constructs[members[0]].states
                for construct_id in members[1:]:
                    member = constructs[construct_id]
                    member.apply_row(states, member.step + 1)
            # The simulated baseline server does this work for every
            # construct; the cost model must keep seeing it (virtual time is
            # unchanged by the host-side skip).
            report.simulated_locally = len(constructs)
            report.advanced = len(constructs)
            return report

        return ConstructTickPlan(circuits=circuits, finish=finish, stepper=self._stepper)
