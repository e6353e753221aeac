"""Seeded, virtual-time fault injection.

The :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan` into
concrete fault decisions.  Every probabilistic decision is drawn from the
simulation's *named RNG streams* (``faults:faas`` and ``faults:net``), which
:class:`~repro.sim.rng.RandomStreams` derives independently per (seed, name):
chaos draws never perturb the existing simulation streams, and two runs with
the same seed and the same plan make bit-identical fault decisions — the
whole chaos run, including its fault timeline, is reproducible.

Every injected fault is appended to a :class:`FaultTimeline`, whose digest
two same-seed runs of one plan must share.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.degradation import DegradationController
from repro.faults.plan import FaultPlan, RetryPolicy, ShardKill
from repro.net.channel import FaultyMessageChannel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.server.gameloop import GameServer
    from repro.sim.engine import SimulationEngine


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in virtual time."""

    time_ms: float
    #: e.g. "faas.failure", "net.drop", "shard.kill", "shard.respawn"
    kind: str
    detail: str = ""


@dataclass
class FaultTimeline:
    """The ordered record of every fault a run injected."""

    events: list[FaultEvent] = field(default_factory=list)

    def record(self, time_ms: float, kind: str, detail: str = "") -> None:
        self.events.append(FaultEvent(time_ms=time_ms, kind=kind, detail=detail))

    def digest(self) -> str:
        """A stable hash of the full timeline (the rerun-determinism gate)."""
        hasher = hashlib.sha256()
        for event in self.events:
            hasher.update(
                f"{event.time_ms!r}|{event.kind}|{event.detail};".encode("utf-8")
            )
        return hasher.hexdigest()

    def __len__(self) -> int:
        return len(self.events)


class FaultInjector:
    """Draws fault decisions for one run, from dedicated RNG streams."""

    def __init__(self, engine: "SimulationEngine", plan: FaultPlan) -> None:
        self.engine = engine
        self.plan = plan
        self.timeline = FaultTimeline()
        # Dedicated streams: creating them never touches existing streams,
        # and they are only instantiated for the sections the plan enables —
        # an empty section costs nothing.
        self._faas_rng = engine.rng("faults:faas") if plan.faas is not None else None
        self._net_rng = engine.rng("faults:net") if plan.net is not None else None
        #: kills not yet delivered, ordered by (at_ms, shard)
        self._pending_kills: list[ShardKill] = list(plan.shards)
        #: the one lossy wire between every client and every server, for net faults
        self.channel = (
            FaultyMessageChannel(engine, self) if plan.net is not None and plan.net.active else None
        )

    def wire(self, server: "GameServer") -> None:
        """Attach the channel and a degradation controller to ``server`` (or a respawned shard)."""
        if self.channel is not None:
            server.message_channel = self.channel
            for session in server.sessions.values():
                session.attach_channel(self.channel)
        policy = self.plan.degradation
        if policy is not None:
            server.degradation = DegradationController(
                policy, self.engine.metrics, record=self.record, server_name=server.name
            )

    # -- FaaS -----------------------------------------------------------------------

    @property
    def retry_policy(self) -> RetryPolicy:
        if self.plan.faas is not None:
            return self.plan.faas.retry
        return RetryPolicy()

    def faas_outcome(self, function_name: str) -> str:
        """The injected outcome for one invocation attempt.

        One uniform draw is partitioned across the configured rates, so the
        decision costs exactly one draw regardless of which rates are set.
        Returns ``"ok"``, ``"failure"``, ``"throttled"`` or ``"timeout"``.
        """
        faults = self.plan.faas
        if faults is None or not faults.active:
            return "ok"
        draw = float(self._faas_rng.random())
        if draw < faults.failure_rate:
            outcome = "failure"
        elif draw < faults.failure_rate + faults.throttle_rate:
            outcome = "throttled"
        elif draw < faults.failure_rate + faults.throttle_rate + faults.timeout_rate:
            outcome = "timeout"
        else:
            return "ok"
        self._emit(f"faas.{outcome}", function_name)
        return outcome

    def retry_jitter_ms(self) -> float:
        """Uniform backoff jitter in [0, jitter_ms] (0 when no jitter is set)."""
        jitter = self.retry_policy.jitter_ms
        if jitter <= 0.0 or self._faas_rng is None:
            return 0.0
        return float(self._faas_rng.random()) * jitter

    # -- shards ---------------------------------------------------------------------

    def shard_kills_due(self, now_ms: float) -> list[ShardKill]:
        """Pop every scheduled kill whose time has arrived.

        The coordinator polls this at round boundaries, so kills land between
        rounds — never in the middle of a shard's tick.
        """
        due = [kill for kill in self._pending_kills if kill.at_ms <= now_ms]
        if due:
            self._pending_kills = [k for k in self._pending_kills if k.at_ms > now_ms]
        return due

    def record(self, kind: str, detail: str = "") -> None:
        self._emit(kind, detail)

    def _emit(self, kind: str, detail: str) -> None:
        """Record one fault on the timeline and, when enabled, the telemetry hub.

        This is the FaultTimeline→telemetry fold-in: every fault event becomes
        a ``fault``-category instant in the unified virtual-time trace, while
        the timeline (and its digest, the chaos determinism gate) stays the
        authoritative chaos record.
        """
        now_ms = self.engine.now_ms
        self.timeline.record(now_ms, kind, detail)
        telemetry = self.engine.telemetry
        if telemetry.enabled:
            telemetry.instant(
                "fault",
                kind,
                track="faults",
                ts_ms=now_ms,
                args={"detail": detail} if detail else None,
            )

    # -- net ------------------------------------------------------------------------

    @property
    def net_rng(self):
        """The ``faults:net`` stream (None when the plan has no net section)."""
        return self._net_rng
