"""Warm execution-environment pool.

FaaS providers keep a function's execution environments warm for a limited
time after use; an invocation that cannot be served by a free warm environment
pays a cold start.  The paper observes that providers start deallocating
environments "within minutes", producing temporally correlated latency
outliers, and that concurrent bursts (e.g. many terrain chunks requested at
once) trigger additional cold starts because each concurrent execution needs
its own environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class _Environment:
    busy_until_ms: float
    last_used_ms: float


@dataclass
class WarmInstancePool:
    """Tracks the warm execution environments of one function."""

    keep_alive_ms: float = 7 * 60 * 1000.0
    _environments: list[_Environment] = field(default_factory=list)
    #: at most every environment's ``last_used_ms``: lowered to each use's
    #: time when that is earlier, and exact after each rebuild in :meth:`_expire`
    _last_used_floor_ms: float = field(default=math.inf, init=False, repr=False, compare=False)

    def acquire(self, now_ms: float, duration_ms: float) -> bool:
        """Reserve an environment for an invocation starting at ``now_ms``.

        Returns True if the invocation is a cold start (no free, still-warm
        environment was available).  The environment is marked busy until the
        invocation finishes.
        """
        self._expire(now_ms)
        if now_ms < self._last_used_floor_ms:  # an invocation may be submitted ahead of another
            self._last_used_floor_ms = now_ms
        for environment in self._environments:
            if environment.busy_until_ms <= now_ms:
                environment.busy_until_ms = now_ms + duration_ms
                environment.last_used_ms = now_ms
                return False
        self._environments.append(
            _Environment(busy_until_ms=now_ms + duration_ms, last_used_ms=now_ms)
        )
        return True

    def _expire(self, now_ms: float) -> None:
        # Nothing expires while even the least recently used environment is
        # inside its keep-alive: every other one was used later.
        if now_ms - self._last_used_floor_ms <= self.keep_alive_ms:
            return
        self._environments = [
            environment
            for environment in self._environments
            if environment.busy_until_ms > now_ms
            or (now_ms - environment.last_used_ms) <= self.keep_alive_ms
        ]
        self._last_used_floor_ms = min(
            (environment.last_used_ms for environment in self._environments), default=math.inf
        )
