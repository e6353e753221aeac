"""Graceful degradation: shed broadcast work instead of falling behind.

When a shard's tick blows its budget, the next tick sheds a configurable
fraction of its due broadcast work — players' full fan-out updates, or
far-tier interest flushes — until a tick lands back under budget.  This is
bounded inconsistency in the dyconit sense: a subset of observers receives a
stale tick, but the shard keeps its tick rate — degradation instead of collapse.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.faults.plan import DegradationPolicy
from repro.sim.metrics import MetricRegistry


class DegradationController:
    """Per-server shed decision, driven by the previous tick's duration."""

    def __init__(
        self,
        policy: DegradationPolicy,
        metrics: MetricRegistry,
        record: Optional[Callable[[str, str], None]] = None,
        server_name: str = "server",
    ) -> None:
        self.policy = policy
        self.metrics = metrics
        self.server_name = server_name
        self._record = record
        self._over_budget = False

    def shed_count(self, due: int, unit: str) -> int:
        """How many of the ``due`` broadcast ``unit``s to shed this tick (0 under budget).

        Full fan-out passes its ``"players"``; interest management its due
        far-tier ``"flushes"``, counted *after* interest filtering.
        """
        if not self._over_budget or due <= 0:
            return 0
        shed = int(due * self.policy.shed_fraction)
        if shed > 0:
            self.metrics.increment("broadcast_updates_shed", shed)
            if self._record is not None:
                self._record("degradation.shed", f"{self.server_name} {unit}={shed}")
        return shed

    def observe(self, duration_ms: float) -> None:
        """Feed back the tick's duration; decides whether the next tick sheds."""
        self._over_budget = duration_ms > self.policy.budget_ms
