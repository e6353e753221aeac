"""Replicated speculative execution of simulated constructs.

This is Servo's construct backend (Section III-C).  For every construct it
keeps at most one offload invocation in flight plus the speculative state
sequences received so far:

* Each game tick, if a valid speculative state for the construct's next step
  is available (the reply has arrived, in virtual time, and its logical
  timestamp matches the construct's modification counter), the backend applies
  it — the *merge* path, which is cheap for the game loop.
* Otherwise the backend simulates the step locally — the *fallback* path that
  hides function latency (including cold starts) from players.
* A new invocation is issued ``tick_lead`` ticks before the remaining coverage
  runs out, so with a sufficient lead the reply is always there in time and
  the fallback path is never needed (the paper's 100 % efficiency result).
* If the offload function detected a state loop, the sequence covers every
  future step and no further invocations are needed until a player modifies
  the construct (the cost optimisation of Section III-C1).

Efficiency is accounted per invocation exactly as the paper defines it: the
fraction of the requested steps that did *not* have to be recomputed locally
because the reply arrived too late.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.constructs.batched import BatchedCircuitStepper
from repro.constructs.circuit import SimulatedConstruct
from repro.constructs.compiled import compile_circuit
from repro.constructs.loop_detection import CompressedStateSequence
from repro.core.config import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, OffloadReply, OffloadRequest
from repro.faas.function import Invocation
from repro.faas.platform import FaasPlatform
from repro.server.sc_engine import (
    ConstructBackend,
    ConstructTickPlan,
    ConstructTickReport,
)
from repro.sim.engine import SimulationEngine
from repro.world.coords import BlockPos

#: sentinel coverage for looping sequences (they cover every future step)
_UNBOUNDED_COVERAGE = 10 ** 9


@dataclass
class _PendingInvocation:
    """An offload invocation whose reply has not been consumed yet."""

    invocation: Invocation
    request: OffloadRequest
    #: steps inside the request's range the server had to compute locally
    locally_computed: int = 0

    @property
    def first_step(self) -> int:
        return self.request.start_step + 1

    @property
    def last_step(self) -> int:
        return self.request.start_step + self.request.steps

    def covers(self, step: int) -> bool:
        return self.first_step <= step <= self.last_step


@dataclass
class SpeculationRecord:
    """Per-construct speculation state."""

    construct_id: int
    #: replies received and possibly still useful; each is valid only while
    #: its timestamp equals the construct's modification counter
    available: list[OffloadReply] = field(default_factory=list)
    pending: Optional[_PendingInvocation] = None
    invocations_issued: int = 0
    merged_steps: int = 0
    fallback_steps: int = 0

    def valid_sequences(self, construct: SimulatedConstruct) -> list[CompressedStateSequence]:
        return [
            reply.sequence
            for reply in self.available
            if reply.timestamp == construct.modification_counter
        ]

    def coverage_end(self, construct: SimulatedConstruct) -> int:
        """The last step any valid sequence covers (construct.step when none do)."""
        end = construct.step
        for sequence in self.valid_sequences(construct):
            if sequence.is_looping:
                return _UNBOUNDED_COVERAGE
            end = max(end, sequence.last_step)
        return end

    def sequence_for(
        self, construct: SimulatedConstruct, step: int
    ) -> Optional[CompressedStateSequence]:
        for sequence in self.valid_sequences(construct):
            if sequence.covers(step):
                return sequence
        return None

    def drop_exhausted(self, construct: SimulatedConstruct) -> None:
        """Forget sequences that can no longer produce a useful state."""
        self.available = [
            reply
            for reply in self.available
            if reply.timestamp == construct.modification_counter
            and (reply.sequence.is_looping or reply.sequence.last_step > construct.step)
        ]


class SpeculativeConstructBackend(ConstructBackend):
    """Servo's construct backend: offload to FaaS, merge speculative states."""

    def __init__(
        self, engine: SimulationEngine, platform: FaasPlatform, config: ServoConfig | None = None
    ) -> None:
        super().__init__()
        self.engine = engine
        self.platform = platform
        self.config = config or ServoConfig()
        self._records: dict[int, SpeculationRecord] = {}
        self._stepper = BatchedCircuitStepper()
        #: construct ids pinned at a fixed point by a length-1 looping
        #: sequence: every future merge would re-apply the same state, so the
        #: backend only advances their step counters until a player edit
        self._quiescent: set[int] = set()
        self.metrics = engine.metrics

    # -- registry -------------------------------------------------------------------

    def register_construct(self, construct: SimulatedConstruct) -> None:
        construct_id = self._file(construct)
        # Compile up front so the fallback path never pays the flattening cost
        # inside a tick.
        compile_circuit(construct)
        # A re-used construct id (removed, then re-placed) must start from a
        # clean slate: no inherited fixed-point pin, no stale speculation.
        self._quiescent.discard(construct_id)
        record = self._records[construct_id] = SpeculationRecord(construct_id=construct_id)
        # The paper starts server-side and remote simulation simultaneously
        # when a construct is activated; issue the first invocation right away.
        self._issue_invocation(record, construct)

    def remove_construct(self, construct_id: int) -> None:
        self._constructs.pop(construct_id, None)
        self._records.pop(construct_id, None)
        self._quiescent.discard(construct_id)

    def on_player_modify(self, construct_id: int, position: BlockPos) -> None:
        construct = self._constructs.get(construct_id)
        if construct is None:
            return
        construct.player_modify(position)
        record = self._records[construct_id]
        # Every stored sequence is now stale; the timestamp check would reject
        # them anyway, but dropping them eagerly frees memory.  The edit also
        # wakes the construct if it was parked at a fixed point.
        record.available.clear()
        self._quiescent.discard(construct_id)
        self.metrics.increment("speculation_invalidated")

    def _skipped_rows(self) -> list[tuple[SimulatedConstruct, np.ndarray]]:
        return [(self._constructs[i], self._constructs[i].states) for i in sorted(self._quiescent)]

    # -- speculation plumbing ----------------------------------------------------------

    def _issue_invocation(
        self, record: SpeculationRecord, construct: SimulatedConstruct
    ) -> None:
        """Send the next offload request for this construct (at most one in flight)."""
        if record.pending is not None:
            return
        coverage_end = record.coverage_end(construct)
        if coverage_end >= _UNBOUNDED_COVERAGE:
            return  # a looping sequence covers everything; no more invocations

        request = OffloadRequest.from_construct(
            construct, steps=self.config.steps_per_invocation
        )
        if coverage_end > construct.step:
            # Speculate onwards from the end of the current coverage.
            sequence = record.sequence_for(construct, coverage_end)
            request = replace(
                request,
                start_step=coverage_end,
                states=tuple(sequence.row_at(coverage_end).tolist()),
            )
        # With a fault plan installed the platform answers injected failures
        # with retry/backoff; without one this is a plain invoke.
        invocation = self.platform.invoke_with_retry(SC_SIMULATION_FUNCTION, request)
        record.pending = _PendingInvocation(invocation=invocation, request=request)
        record.invocations_issued += 1
        self.metrics.increment("offload_invocations")
        self.metrics.histogram("offload_latency_ms").record(invocation.latency_ms)

    def _promote_pending(
        self, record: SpeculationRecord, construct: SimulatedConstruct, now_ms: float
    ) -> None:
        """Consume a pending invocation whose reply has arrived (in virtual time)."""
        pending = record.pending
        if pending is None or pending.invocation.completed_ms > now_ms:
            return
        record.pending = None
        reply = pending.invocation.result
        if (
            pending.invocation.status != "ok"
            or not isinstance(reply, OffloadReply)
            or reply.sequence.cell_count != construct.block_count
        ):
            # The invocation (and its retries, if any) produced nothing this
            # construct can merge: it keeps advancing on the local-fallback
            # path until the follow-up invocation issued in this tick's
            # phase 3 delivers.
            self.metrics.increment("offload_failures")
            self.metrics.increment("offload_local_fallbacks")
            return

        efficiency = (
            (pending.request.steps - pending.locally_computed) / pending.request.steps
            if pending.request.steps > 0
            else 1.0
        )
        self.metrics.histogram("speculation_efficiency").record(max(0.0, efficiency))

        if reply.timestamp != construct.modification_counter:
            # The player modified the construct after the request was sent; the
            # speculative states are inconsistent with the new correct state.
            self.metrics.increment("speculation_discarded")
            return
        if reply.loop_detected:
            self.metrics.increment("loops_detected")
        record.available.append(reply)

    # -- the per-tick work ----------------------------------------------------------------

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Advance every construct one step.

        The tick runs in three phases so the local-simulation work can be
        batched: (1) per construct, in id order, consume arrived replies and
        either merge a speculative state or queue the construct for local
        fallback; (2) advance all fallback circuits in one vectorised batch
        (constructs are independent, so this is equivalent to stepping them
        in order); (3) per construct, in id order again, drop exhausted
        sequences and issue follow-up invocations.  Every random draw happens
        in phase 1 (none) or phase 3 (``platform.invoke``), in construct id
        order — exactly the order the single-loop implementation used — so
        virtual results are bit-identical.

        The split exposes phase 2 as the plan's pure batch: phase 1 runs
        here, phase 3 runs in ``finish`` once the batch has been stepped.
        """
        report = ConstructTickReport(
            total_constructs=len(self._constructs), construct_tick=True
        )
        now_ms = self.engine.now_ms
        tick_lead = self.config.tick_lead
        quiescent = self._quiescent
        ordered = self.constructs()

        # Phase 1: merges, quiescent skips, and fallback collection.
        fallbacks: list[SimulatedConstruct] = []
        fast_path_skipped: set[int] = set()
        for construct in ordered:
            record = self._records[construct.construct_id]
            if construct.construct_id in quiescent:
                fast_path_skipped.add(construct.construct_id)
                # Fixed point pinned by a length-1 loop and nothing in
                # flight: merging would re-apply the state the construct
                # already holds.  The simulated server still pays the merge
                # (the report keeps counting it); the host skips the work.
                construct.step += 1
                record.merged_steps += 1
                report.merged_speculative += 1
                report.advanced += 1
                report.skipped_quiescent += 1
                continue
            self._promote_pending(record, construct, now_ms)

            target_step = construct.step + 1
            sequence = record.sequence_for(construct, target_step)
            if sequence is not None:
                construct.apply_row(sequence.row_at(target_step), target_step)
                record.merged_steps += 1
                report.merged_speculative += 1
                if record.pending is None and sequence.settled_by(target_step):
                    # The loop has a single state and the construct has just
                    # been set to it: every future step is this exact state.
                    quiescent.add(construct.construct_id)
            else:
                record.fallback_steps += 1
                report.simulated_locally += 1
                pending = record.pending
                if (
                    pending is not None
                    and pending.covers(target_step)
                    and pending.request.timestamp == construct.modification_counter
                ):
                    pending.locally_computed += 1
                fallbacks.append(construct)
            report.advanced += 1

        # Phase 2 is the plan's pure batch: one local step for every
        # fallback construct, wherever the caller chooses to run it.
        circuits = [compile_circuit(construct) for construct in fallbacks]

        def finish() -> ConstructTickReport:
            # Phase 3: bookkeeping and follow-up invocations, in construct
            # order.  Constructs that took the quiescent fast path in phase 1
            # are skipped (as the single loop did); ones that became
            # quiescent *this tick* still get their transition-tick
            # bookkeeping.  Quiescence in this backend is pinned by length-1
            # looping sequences, not by locally observed fixed points.
            for construct in ordered:
                if construct.construct_id in fast_path_skipped:
                    continue
                record = self._records[construct.construct_id]
                record.drop_exhausted(construct)
                coverage_end = record.coverage_end(construct)
                if (
                    coverage_end < _UNBOUNDED_COVERAGE
                    and coverage_end - construct.step <= tick_lead
                ):
                    self._issue_invocation(record, construct)
            return report

        return ConstructTickPlan(circuits=circuits, finish=finish, stepper=self._stepper)

    # -- introspection -----------------------------------------------------------------------

    def record_for(self, construct_id: int) -> SpeculationRecord:
        if construct_id not in self._records:
            raise KeyError(f"no speculation record for construct {construct_id}")
        return self._records[construct_id]

    def efficiency_samples(self) -> list[float]:
        return self.metrics.histogram("speculation_efficiency").samples
