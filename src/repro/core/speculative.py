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
  the construct (the cost optimisation of Section III-C1).  Once a merge
  lands inside that loop with nothing in flight, the backend hands the
  construct to the :class:`~repro.constructs.loop_detection.LoopReplay` both
  backends use, until an edit, registration or removal clears it; the
  simulated server still pays each replayed step as a merge.

Efficiency is accounted per invocation exactly as the paper defines it: the
fraction of the requested steps that did *not* have to be recomputed locally
because the reply arrived too late.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.constructs.batched import BatchedCircuitStepper
from repro.constructs.circuit import SimulatedConstruct
from repro.constructs.compiled import compile_circuit
from repro.constructs.loop_detection import CompressedStateSequence
from repro.core.config import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, OffloadReply, OffloadRequest
from repro.faas.function import Invocation
from repro.faas.platform import FaasPlatform
from repro.server.sc_engine import ConstructBackend, ConstructTickPlan, ConstructTickReport
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

    def covers(self, step: int) -> bool:
        start = self.request.start_step
        return start < step <= start + self.request.steps


@dataclass
class SpeculationRecord:
    """A construct's speculation state."""

    construct: SimulatedConstruct
    #: replies received and possibly still useful; each is valid only while
    #: its timestamp equals the construct's modification counter
    available: list[OffloadReply] = field(default_factory=list)
    pending: Optional[_PendingInvocation] = None
    invocations_issued: int = 0
    fallback_steps: int = 0

    def __post_init__(self) -> None:
        #: the construct's step when it was registered
        self.first_step = self.construct.step

    @property
    def merged_steps(self) -> int:
        """Steps taken from a reply, replayed ones included: every advance not simulated locally."""
        return self.construct.step - self.first_step - self.fallback_steps

    def valid_sequences(self) -> list[CompressedStateSequence]:
        counter = self.construct.modification_counter
        return [reply.sequence for reply in self.available if reply.timestamp == counter]

    def coverage_end(self) -> int:
        """The last step any valid sequence covers (the construct's step when none do)."""
        end = self.construct.step
        for sequence in self.valid_sequences():
            if sequence.is_looping:
                return _UNBOUNDED_COVERAGE
            end = max(end, sequence.last_step)
        return end

    def sequence_for(self, step: int) -> Optional[CompressedStateSequence]:
        for sequence in self.valid_sequences():
            if sequence.covers(step):
                return sequence
        return None

    def drop_exhausted(self) -> None:
        """Forget sequences that can no longer produce a useful state."""
        construct = self.construct
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
        #: the constructs that merge or fall back, in id order; every other
        #: construct is in ``replay``
        self._merging: list[SimulatedConstruct] = []
        self.metrics = engine.metrics

    # -- registry -------------------------------------------------------------------

    def register_construct(self, construct: SimulatedConstruct) -> None:
        super().register_construct(construct)
        # A re-used construct id (removed, then re-placed) starts from a new record.
        record = self._records[construct.construct_id] = SpeculationRecord(construct)
        # The paper starts server-side and remote simulation simultaneously
        # when a construct is activated; issue the first invocation right away.
        self._issue_invocation(record)

    def remove_construct(self, construct_id: int) -> None:
        super().remove_construct(construct_id)
        self._records.pop(construct_id, None)

    def on_player_modify(self, construct_id: int, position: BlockPos) -> None:
        super().on_player_modify(construct_id, position)
        record = self._records.get(construct_id)
        if record is not None:
            # Every stored sequence is now stale; the timestamp check would
            # reject them anyway, but dropping them eagerly frees memory.
            record.available.clear()
            self.metrics.increment("speculation_invalidated")

    def _regroup(self) -> None:
        """Clear the replay: every construct merges once more, and re-enters it from there."""
        self.replay.clear()
        self._merging = self.constructs()

    # -- speculation plumbing ----------------------------------------------------------

    def _issue_invocation(self, record: SpeculationRecord) -> None:
        """Send the next offload request for the record's construct (at most one in flight)."""
        if record.pending is not None:
            return
        construct = record.construct
        coverage_end = record.coverage_end()
        request = OffloadRequest.from_construct(
            construct, steps=self.config.steps_per_invocation
        )
        if coverage_end > construct.step:
            # Speculate onwards from the end of the current coverage.
            sequence = record.sequence_for(coverage_end)
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

    def _promote_pending(self, record: SpeculationRecord, now_ms: float) -> None:
        """Consume a pending invocation whose reply has arrived (in virtual time)."""
        pending = record.pending
        if pending is None or pending.invocation.completed_ms > now_ms:
            return
        record.pending = None
        reply = pending.invocation.result
        if (
            pending.invocation.status != "ok"
            or not isinstance(reply, OffloadReply)
            or reply.sequence.cell_count != record.construct.block_count
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

        if reply.timestamp != record.construct.modification_counter:
            # The player modified the construct after the request was sent; the
            # speculative states are inconsistent with the new correct state.
            self.metrics.increment("speculation_discarded")
            return
        if reply.sequence.is_looping:
            self.metrics.increment("loops_detected")
        record.available.append(reply)

    # -- the per-tick work ----------------------------------------------------------------

    def begin_tick(self, tick_index: int) -> ConstructTickPlan:
        """Advance every construct one step.

        The loop replay's constructs take their next row.  The others run in
        three phases, so the local-simulation work is batched: (1) here, per
        construct in id order, consume arrived replies and merge a speculative
        state or queue the construct for local fallback; (2) the plan's pure
        batch steps every fallback circuit at once (constructs are
        independent); (3) ``finish``, in id order again, drops exhausted
        sequences and issues follow-up invocations.  Every random draw is a
        phase-3 ``platform.invoke`` in construct id order, so virtual results
        equal stepping the constructs one by one.  A construct that merges a
        row inside its reply's loop with nothing in flight enters the replay,
        and skips both phases from the next tick on.
        """
        replay = self.replay
        # A host with nothing to replay pays no call for it.
        replayed = replay.advance() if replay.replaying or replay.parked else 0
        report = ConstructTickReport(
            total_constructs=len(self._constructs),
            merged_speculative=replayed,
            advanced=replayed,
            skipped_quiescent=replayed,
            construct_tick=True,
        )
        now_ms = self.engine.now_ms
        tick_lead = self.config.tick_lead
        merging, self._merging = self._merging, []

        # Phase 1: merges (and hand-overs to the replay), and fallback collection.
        fallbacks: list[SimulatedConstruct] = []
        for construct in merging:
            record = self._records[construct.construct_id]
            self._promote_pending(record, now_ms)
            report.advanced += 1
            target_step = construct.step + 1
            sequence = record.sequence_for(target_step)
            if sequence is not None:
                construct.apply_row(sequence.row_at(target_step), target_step)
                report.merged_speculative += 1
                # A pending reply must still be consumed, so only a construct
                # with nothing in flight may leave the merge path.
                if record.pending is None and replay.enter_sequence(
                    construct, sequence, target_step
                ):
                    continue
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
            self._merging.append(construct)

        # Phase 2 is the plan's pure batch: one local step for every
        # fallback construct, wherever the caller chooses to run it.
        circuits = [compile_circuit(construct) for construct in fallbacks]

        def finish() -> ConstructTickReport:
            # Phase 3: bookkeeping and follow-up invocations, in construct
            # order (a construct that entered the replay this tick included:
            # its looping sequence covers everything, so it issues nothing).
            for construct in merging:
                record = self._records[construct.construct_id]
                record.drop_exhausted()
                if record.coverage_end() - construct.step <= tick_lead:
                    self._issue_invocation(record)
            return report

        return ConstructTickPlan(circuits=circuits, finish=finish, stepper=self._stepper)

    # -- introspection -----------------------------------------------------------------------

    def record_for(self, construct_id: int) -> SpeculationRecord:
        return self._records[construct_id]
