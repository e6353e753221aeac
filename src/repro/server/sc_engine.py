"""Construct backends: who simulates the simulated constructs.

The game loop delegates construct simulation to a pluggable backend:

* :class:`LocalConstructBackend` — the baseline behaviour of Opencraft and
  Minecraft: every construct is simulated on the server, every other tick
  (which is what makes their tick-duration distributions bimodal).  The host
  steps only circuits whose future is unknown: once a construct's state
  repeats, it replays its loop (a fixed point is the loop of period 1).
* Servo's speculative/offloading backend lives in
  :mod:`repro.core.speculative` and implements the same interface.

Both hand a construct whose future is a known loop to the one
:class:`~repro.constructs.loop_detection.LoopReplay` every backend holds.

Backends really advance construct state (using
:class:`repro.constructs.batched.BatchedCircuitStepper`), so block/lamp states are
functionally correct in every variant; the *cost* of the work they report is
translated into tick time by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.constructs.batched import BatchedCircuitStepper
from repro.constructs.circuit import ConstructIds, SimulatedConstruct
from repro.constructs.compiled import CompiledCircuit, compile_circuit
from repro.constructs.loop_detection import LoopDetector, LoopReplay
from repro.constructs.simulator import clone_construct
from repro.world.coords import BlockPos


@dataclass
class ConstructTickReport:
    """What the construct backend did during one tick.

    ``simulated_locally`` / ``merged_speculative`` report the work the
    *simulated server* performed — the cost model's inputs — so they keep
    counting constructs whose re-simulation (or merge) the host skipped.
    ``skipped_quiescent`` separately reports how many of those advances the
    backend's :class:`~repro.constructs.loop_detection.LoopReplay` satisfied,
    by a replayed loop or a parked fixed point, in either backend (a
    wall-clock optimisation of the simulator host, invisible in virtual
    time; the name predates replay and is kept because ``bench/`` reads it).
    """

    total_constructs: int = 0
    simulated_locally: int = 0
    merged_speculative: int = 0
    #: constructs that advanced one step this tick (by any path)
    advanced: int = 0
    #: advances the loop replay satisfied (a replayed loop or a parked fixed point)
    skipped_quiescent: int = 0
    #: True if this tick was a construct-simulation tick for the backend
    construct_tick: bool = False


@dataclass
class ConstructTickPlan:
    """A backend tick split at its pure-compute boundary.

    ``circuits`` is the batch of independent compiled circuits the tick must
    advance by exactly one step — pure integer compute with no randomness —
    and ``finish`` runs once they have been stepped.
    Everything that touches shared simulation state (RNG streams, metrics,
    speculation records) stays inside ``begin_tick``/``finish``.

    The game loop only calls :meth:`ConstructBackend.tick`.  The plan, its
    ``circuits``, ``step_inline`` and ``finish``, and ``begin_tick`` remain
    only because the host-time benchmark's span recorder wraps and reads them
    by name; they fold into ``tick`` once it reads the program's own sections.
    """

    circuits: list[CompiledCircuit]
    finish: Callable[[], ConstructTickReport]
    #: the backend's own stepper (only a plan without circuits may omit it)
    stepper: Optional[BatchedCircuitStepper] = None

    def step_inline(self) -> None:
        """Advance the plan's circuits one step."""
        self.stepper.step_batch(self.circuits)


class ConstructBackend:
    """Interface the game loop uses to drive construct simulation, over a shared registry.

    Registration, removal and a player edit clear the loop replay (``_regroup``).
    """

    def __init__(self) -> None:
        self._constructs: dict[int, SimulatedConstruct] = {}
        self._numbering = ConstructIds()
        #: the constructs advanced without simulation, because their future is a loop
        self.replay = LoopReplay()

    def register_construct(self, construct: SimulatedConstruct) -> None:
        """Number ``construct`` unless it has an id and file it under that id, never a taken one."""
        construct_id = self._numbering.number(construct)
        if construct_id in self._constructs:
            raise ValueError(f"construct id {construct_id} is already registered")
        self._constructs[construct_id] = construct
        # Compile eagerly: registration is the cold path, ticks are the hot one.
        compile_circuit(construct)
        self._regroup()

    def remove_construct(self, construct_id: int) -> None:
        self._constructs.pop(construct_id, None)
        self._regroup()

    def constructs(self) -> list[SimulatedConstruct]:
        return [self._constructs[key] for key in sorted(self._constructs)]

    def on_player_modify(self, construct_id: int, position: BlockPos) -> None:
        """Called when a player modifies a construct (or terrain adjacent to it)."""
        construct = self._constructs.get(construct_id)
        if construct is not None:
            construct.player_modify(position)
            self._regroup()

    def _regroup(self) -> None:
        self.replay.clear()

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Split the tick at its pure-compute boundary; see ConstructTickPlan."""
        raise NotImplementedError

    def tick(self, tick_index: int) -> ConstructTickReport:
        """Advance construct simulation for one game tick."""
        # Through the instance attributes, which a span recorder may wrap.
        plan = self.begin_tick(tick_index)
        if plan.circuits:
            plan.step_inline()
        return plan.finish()

    def verify_states(self) -> bool:
        """True when every registered construct's state vector keeps its invariants.

        Holds between ticks: each ``states`` is a writable 1-D ``int64`` array
        of ``block_count`` values, every ``cell.state`` is a plain ``int``
        equal to its slot, no two constructs' vectors share memory, and every
        construct the loop replay holds (each pair of ``replay.skipped_rows()``)
        gets, at its next advance, the row one compiled step of a clone gives.
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
        for construct, row in self.replay.skipped_rows():
            clone = clone_construct(construct)
            compile_circuit(clone).step()
            if not np.array_equal(clone.states, row):
                return False
        return True


#: rows a group records while it looks for its loop: every loop of the bench
#: fleets and of ``constructs/library.py`` closes by step 23, a counter farm's never
LOOP_SEARCH_ROWS = 32


class _Group:
    """Identical constructs: the kernel steps ``members[0]``, whose rows ``detector`` records."""

    __slots__ = ("members", "circuit", "detector")

    def __init__(self, members: list[SimulatedConstruct]) -> None:
        self.members, self.circuit = members, compile_circuit(members[0])
        self.detector: Optional[LoopDetector] = LoopDetector()  # None once it gives up
        self.detector.observe(members[0].states)


class LocalConstructBackend(ConstructBackend):
    """Simulate every construct on the server, every ``interval`` ticks.

    Identical constructs (same structure and state) share one functional
    simulation: their state sequences are provably equal, so the backend
    simulates one representative per equivalence class and applies the result
    to all members.  The *cost* reported still counts every construct, because
    the baseline servers do the work per construct.

    Once a group's row repeats, its members leave the kernel batch for the
    loop replay: each replays its own copy of the loop, or is parked at a
    fixed point (the loop of period 1) where only its step counter advances.
    """

    def __init__(self, interval: int = 2) -> None:
        if interval < 1:
            raise ValueError("construct simulation interval must be at least 1")
        super().__init__()
        self.interval = int(interval)
        self._stepper = BatchedCircuitStepper()
        #: the groups the kernel steps (None until the next construct tick
        #: regroups) and their circuits; every other construct is in ``replay``
        self._stepped: Optional[list[_Group]] = None
        self._circuits: list[CompiledCircuit] = []

    def _regroup(self) -> None:
        """Drop every group and loop: the next construct tick regroups and searches anew."""
        self._stepped = None
        self.replay.clear()

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
        Every group starts its loop search at its current row.
        """
        groups: dict[tuple, list[SimulatedConstruct]] = {}
        for construct in self.constructs():
            groups.setdefault(self._equivalence_key(construct), []).append(construct)
        self._stepped = [_Group(members) for members in groups.values()]
        self._circuits = [group.circuit for group in self._stepped]

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Phase 1 of the tick: replay the settled constructs, collect the batch.

        Returns the stepped groups' circuits as the plan's pure batch;
        ``finish`` propagates the representatives' states to their group
        members and moves every group whose loop closed out of the batch.
        """
        report = ConstructTickReport(total_constructs=len(self._constructs))
        if tick_index % self.interval != 0 or not self._constructs:
            report.construct_tick = tick_index % self.interval == 0
            return ConstructTickPlan(circuits=[], finish=lambda: report)
        report.construct_tick = True
        if self._stepped is None:
            self._rebuild_groups()

        report.skipped_quiescent = self.replay.advance()
        stepped = self._stepped

        def finish() -> ConstructTickReport:
            settled = []
            for group in stepped:
                # Members take a copy of the representative's vector and
                # advance their own step counters: equal states do not mean
                # equal ages (a construct placed later can join the group).
                states = group.members[0].states
                for member in group.members[1:]:
                    member.apply_row(states, member.step + 1)
                detector = group.detector
                if detector is None:
                    continue
                loop_start = detector.observe(states)
                if loop_start is None:
                    if len(detector.rows) == LOOP_SEARCH_ROWS:
                        group.detector = None  # stepped until it is regrouped
                    continue
                loop = detector.rows[loop_start:]
                for member in group.members:
                    self.replay.enter(member, loop)
                settled.append(group)
            if settled:
                self._stepped = [group for group in stepped if group not in settled]
                self._circuits = [group.circuit for group in self._stepped]
            # The simulated baseline server does this work for every
            # construct; the cost model must keep seeing it (virtual time is
            # unchanged by the host-side replay).
            report.simulated_locally = report.advanced = len(self._constructs)
            return report

        # One vectorised step for every stepped representative; groups are
        # independent, so batching them is equivalent to stepping in order.
        return ConstructTickPlan(circuits=self._circuits, finish=finish, stepper=self._stepper)
