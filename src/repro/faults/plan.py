"""Declarative fault plans.

A :class:`FaultPlan` is the JSON-serializable description of every fault a
run injects.  Like :class:`~repro.api.spec.RunSpec` config overrides, a plan
is data: it round-trips losslessly through ``to_dict``/``from_dict``, is
validated eagerly (unknown keys, out-of-range rates and malformed kill events
raise ``ValueError`` at construction, not mid-run), and an **empty plan is a
guaranteed no-op** — nothing is installed, no RNG stream is touched, and
every determinism hash reproduces bit-for-bit.

The four sections:

* ``faas`` — per-invocation failure/throttle/forced-timeout probabilities for
  the simulated FaaS platform, plus the retry/backoff policy callers answer
  them with (:class:`RetryPolicy`).
* ``net`` — client-message drop/duplication/delay probabilities, applied by
  :class:`~repro.net.channel.FaultyMessageChannel`.
* ``shards`` — scheduled shard crashes (:class:`ShardKill`), recovered by the
  :class:`~repro.cluster.coordinator.ClusterCoordinator` through the
  snapshot/restore migration protocol.
* ``degradation`` — the graceful-degradation controller's knobs
  (:class:`DegradationPolicy`): shed broadcast work when a shard blows its
  tick budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional


def _require_mapping(value: Any, what: str) -> dict:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _check_keys(data: Mapping, allowed: frozenset[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )


def _check_number(value: Any, what: str) -> float:
    """``value``, checked to be an ``int`` or ``float`` before anything compares it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value


def _check_rate(value: Any, what: str) -> None:
    if not 0.0 <= _check_number(value, what) <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value!r}")


def _check_non_negative(value: Any, what: str) -> None:
    if not _check_number(value, what) >= 0:  # NaN fails too
        raise ValueError(f"{what} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for failed FaaS invocations (virtual time).

    Attempt ``n`` (1-based) that fails is retried after
    ``backoff_base_ms * backoff_multiplier ** (n - 1)`` plus a uniform jitter
    in ``[0, jitter_ms]`` drawn from the ``faults:faas`` stream, up to
    ``max_attempts`` total attempts.
    """

    KEYS = frozenset({"max_attempts", "backoff_base_ms", "backoff_multiplier", "jitter_ms"})

    max_attempts: int = 3
    backoff_base_ms: float = 50.0
    backoff_multiplier: float = 2.0
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if isinstance(self.max_attempts, bool) or not isinstance(self.max_attempts, int):
            raise ValueError(f"retry.max_attempts must be an integer, got {self.max_attempts!r}")
        if self.max_attempts < 1:
            raise ValueError(f"retry.max_attempts must be at least 1, got {self.max_attempts!r}")
        _check_non_negative(self.backoff_base_ms, "retry.backoff_base_ms")
        _check_non_negative(self.jitter_ms, "retry.jitter_ms")
        if not _check_number(self.backoff_multiplier, "retry.backoff_multiplier") >= 1.0:
            raise ValueError(
                f"retry.backoff_multiplier must be >= 1, got {self.backoff_multiplier!r}"
            )

    def backoff_ms(self, attempt: int) -> float:
        """The deterministic part of the delay after failed attempt ``attempt``."""
        return self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RetryPolicy":
        data = _require_mapping(data, "faas.retry")
        _check_keys(data, cls.KEYS, "faas.retry")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base_ms": self.backoff_base_ms,
            "backoff_multiplier": self.backoff_multiplier,
            "jitter_ms": self.jitter_ms,
        }


@dataclass(frozen=True)
class FaasFaults:
    """Per-invocation fault probabilities for the FaaS platform."""

    KEYS = frozenset({"failure_rate", "throttle_rate", "timeout_rate", "retry"})

    #: the handler runs but its result is lost (function error)
    failure_rate: float = 0.0
    #: rejected at the control plane before execution (concurrency throttling)
    throttle_rate: float = 0.0
    #: the execution is forced past the function's timeout
    timeout_rate: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        _check_rate(self.failure_rate, "faas.failure_rate")
        _check_rate(self.throttle_rate, "faas.throttle_rate")
        _check_rate(self.timeout_rate, "faas.timeout_rate")
        total = self.failure_rate + self.throttle_rate + self.timeout_rate
        if total > 1.0 + 1e-9:
            raise ValueError(f"faas fault rates must sum to at most 1, got {total!r}")

    @property
    def active(self) -> bool:
        return (self.failure_rate + self.throttle_rate + self.timeout_rate) > 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaasFaults":
        data = _require_mapping(data, "faults.faas")
        _check_keys(data, cls.KEYS, "faults.faas")
        retry = data.pop("retry", None)
        policy = RetryPolicy.from_dict(retry) if retry is not None else RetryPolicy()
        return cls(retry=policy, **data)

    def to_dict(self) -> dict[str, Any]:
        return {
            "failure_rate": self.failure_rate,
            "throttle_rate": self.throttle_rate,
            "timeout_rate": self.timeout_rate,
            "retry": self.retry.to_dict(),
        }


@dataclass(frozen=True)
class NetFaults:
    """Client-message fault probabilities (drop, duplicate, delay)."""

    KEYS = frozenset(
        {"drop_rate", "duplicate_rate", "delay_rate", "delay_ms_min", "delay_ms_max"}
    )

    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    delay_ms_min: float = 25.0
    delay_ms_max: float = 250.0

    def __post_init__(self) -> None:
        _check_rate(self.drop_rate, "net.drop_rate")
        _check_rate(self.duplicate_rate, "net.duplicate_rate")
        _check_rate(self.delay_rate, "net.delay_rate")
        _check_non_negative(self.delay_ms_min, "net.delay_ms_min")
        _check_non_negative(self.delay_ms_max, "net.delay_ms_max")
        if self.delay_ms_max < self.delay_ms_min:
            raise ValueError(
                f"net.delay_ms_max ({self.delay_ms_max!r}) must be >= "
                f"net.delay_ms_min ({self.delay_ms_min!r})"
            )
        total = self.drop_rate + self.duplicate_rate + self.delay_rate
        if total > 1.0 + 1e-9:
            raise ValueError(f"net fault rates must sum to at most 1, got {total!r}")

    @property
    def active(self) -> bool:
        return (self.drop_rate + self.duplicate_rate + self.delay_rate) > 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NetFaults":
        data = _require_mapping(data, "faults.net")
        _check_keys(data, cls.KEYS, "faults.net")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        return {
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "delay_ms_min": self.delay_ms_min,
            "delay_ms_max": self.delay_ms_max,
        }


@dataclass(frozen=True)
class ShardKill:
    """One scheduled shard crash (and its respawn deadline)."""

    KEYS = frozenset({"at_ms", "shard", "respawn_after_ms"})

    #: virtual time of the crash; the kill fires at the first round boundary
    #: at or after this time
    at_ms: float
    #: index of the shard to kill
    shard: int
    #: virtual downtime before the replacement shard is brought up
    respawn_after_ms: float = 2000.0

    def __post_init__(self) -> None:
        _check_non_negative(self.at_ms, "shards[].at_ms")
        _check_non_negative(self.respawn_after_ms, "shards[].respawn_after_ms")
        if isinstance(self.shard, bool) or not isinstance(self.shard, int) or self.shard < 0:
            raise ValueError(f"shards[].shard must be a non-negative integer, got {self.shard!r}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardKill":
        data = _require_mapping(data, "faults.shards[]")
        _check_keys(data, cls.KEYS, "faults.shards[]")
        if "at_ms" not in data or "shard" not in data:
            raise ValueError("faults.shards[] entries require 'at_ms' and 'shard'")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        return {
            "at_ms": self.at_ms,
            "shard": self.shard,
            "respawn_after_ms": self.respawn_after_ms,
        }


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation: shed broadcast work after a budget overrun.

    When a shard's previous tick exceeded ``budget_ms``, the next tick sheds
    ``shed_fraction`` of its due broadcast work (full fan-out players or far
    interest flushes), recovering as soon as a tick lands back under budget.
    Shedding is bounded degradation in the dyconit sense: distant observers
    get a stale tick instead of the whole shard getting slower.
    """

    KEYS = frozenset({"budget_ms", "shed_fraction"})

    #: tick budget that triggers shedding (the paper's QoS budget by default)
    budget_ms: float = 50.0
    #: fraction of the due broadcast work (players or far flushes) shed while over budget
    shed_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not _check_number(self.budget_ms, "degradation.budget_ms") > 0:
            raise ValueError(f"degradation.budget_ms must be positive, got {self.budget_ms!r}")
        _check_rate(self.shed_fraction, "degradation.shed_fraction")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DegradationPolicy":
        data = _require_mapping(data, "faults.degradation")
        _check_keys(data, cls.KEYS, "faults.degradation")
        return cls(**data)

    def to_dict(self) -> dict[str, Any]:
        return {"budget_ms": self.budget_ms, "shed_fraction": self.shed_fraction}


@dataclass(frozen=True)
class FaultPlan:
    """The complete, serializable fault description of one run."""

    KEYS = frozenset({"faas", "net", "shards", "degradation"})

    faas: Optional[FaasFaults] = None
    net: Optional[NetFaults] = None
    shards: tuple[ShardKill, ...] = ()
    degradation: Optional[DegradationPolicy] = None

    @property
    def is_empty(self) -> bool:
        """True when installing this plan is a no-op (the determinism gate)."""
        return (
            (self.faas is None or not self.faas.active)
            and (self.net is None or not self.net.active)
            and not self.shards
            and self.degradation is None
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        data = _require_mapping(data, "fault plan")
        _check_keys(data, cls.KEYS, "fault plan")
        shards = data.get("shards", [])
        if not isinstance(shards, (list, tuple)):
            raise ValueError(f"faults.shards must be a list, got {type(shards).__name__}")
        kills = tuple(
            sorted(
                (ShardKill.from_dict(entry) for entry in shards),
                key=lambda kill: (kill.at_ms, kill.shard),
            )
        )
        return cls(
            faas=FaasFaults.from_dict(data["faas"]) if "faas" in data else None,
            net=NetFaults.from_dict(data["net"]) if "net" in data else None,
            shards=kills,
            degradation=(
                DegradationPolicy.from_dict(data["degradation"])
                if "degradation" in data
                else None
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        if self.faas is not None:
            out["faas"] = self.faas.to_dict()
        if self.net is not None:
            out["net"] = self.net.to_dict()
        if self.shards:
            out["shards"] = [kill.to_dict() for kill in self.shards]
        if self.degradation is not None:
            out["degradation"] = self.degradation.to_dict()
        return out
