"""Latency distribution models.

Every remote interaction in the reproduction (FaaS invocation, blob download,
network hop) samples its duration from one of these models.  The parameters of
the concrete distributions are fitted to the values the paper reports; the
fits are documented where the models are instantiated (``repro.faas`` and
``repro.storage``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class LatencyModel:
    """Base class for latency models.

    Subclasses implement :meth:`sample`, which draws one latency in
    milliseconds using the provided generator.
    """

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` latencies; the default implementation loops over sample()."""
        return np.array([self.sample(rng) for _ in range(int(n))], dtype=float)


@dataclass
class ConstantLatency(LatencyModel):
    """A fixed latency, useful in tests and as a degenerate baseline."""

    value_ms: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.value_ms)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(int(n), float(self.value_ms))


@dataclass
class LogNormalLatency(LatencyModel):
    """Lognormal latency with an optional additive floor.

    ``median_ms`` and ``sigma`` parameterise the lognormal body; ``floor_ms``
    is an irreducible minimum (e.g. network round-trip) added to every sample;
    ``cap_ms`` truncates pathological samples.
    """

    median_ms: float
    sigma: float = 0.5
    floor_ms: float = 0.0
    cap_ms: float = float("inf")

    def sample(self, rng: np.random.Generator) -> float:
        body = rng.lognormal(mean=np.log(max(self.median_ms, 1e-9)), sigma=self.sigma)
        return float(min(self.floor_ms + body, self.cap_ms))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        body = rng.lognormal(
            mean=np.log(max(self.median_ms, 1e-9)), sigma=self.sigma, size=int(n)
        )
        return np.minimum(self.floor_ms + body, self.cap_ms)


@dataclass
class ShiftedExponentialLatency(LatencyModel):
    """Minimum latency plus an exponential tail.

    A good fit for storage services: a deterministic service floor with a
    memoryless tail caused by queueing and throttling.
    """

    floor_ms: float
    mean_tail_ms: float
    cap_ms: float = float("inf")

    def sample(self, rng: np.random.Generator) -> float:
        return float(min(self.floor_ms + rng.exponential(self.mean_tail_ms), self.cap_ms))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.minimum(
            self.floor_ms + rng.exponential(self.mean_tail_ms, size=int(n)), self.cap_ms
        )


@dataclass
class EmpiricalLatency(LatencyModel):
    """Resamples from a fixed set of observed latencies (with jitter)."""

    samples_ms: Sequence[float]
    jitter_fraction: float = 0.05

    def __post_init__(self) -> None:
        if len(self.samples_ms) == 0:
            raise ValueError("EmpiricalLatency requires at least one sample")
        self._values = np.asarray(self.samples_ms, dtype=float)

    def sample(self, rng: np.random.Generator) -> float:
        base = float(rng.choice(self._values))
        jitter = rng.normal(0.0, self.jitter_fraction * max(base, 1e-9))
        return float(max(0.0, base + jitter))


@dataclass
class MixtureLatency(LatencyModel):
    """A weighted mixture of latency models (e.g. fast path + slow tail)."""

    components: Sequence[LatencyModel]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.components) != len(self.weights):
            raise ValueError("components and weights must have the same length")
        total = float(sum(self.weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self._probs = np.asarray(self.weights, dtype=float) / total

    def sample(self, rng: np.random.Generator) -> float:
        index = int(rng.choice(len(self.components), p=self._probs))
        return self.components[index].sample(rng)


@dataclass
class ColdStartModel:
    """Warm/cold behaviour of a FaaS function's execution environments.

    The model tracks, per function, when its warm environments were last used.
    An invocation arriving more than ``keep_alive_ms`` after the previous one
    pays a cold-start penalty drawn from ``penalty``.  This reproduces the
    paper's observation that providers start deallocating function resources
    within minutes, producing temporally correlated outliers.
    """

    keep_alive_ms: float = 5 * 60 * 1000.0
    penalty: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median_ms=1800.0, sigma=0.35, floor_ms=400.0)
    )
    initial_cold: bool = True

    def __post_init__(self) -> None:
        self._last_use_ms: float | None = None if self.initial_cold else float("-inf")

    def penalty_ms(self, now_ms: float, rng: np.random.Generator) -> float:
        """Return the cold-start penalty for an invocation at ``now_ms`` (0 if warm)."""
        cold = (
            self._last_use_ms is None
            or (now_ms - self._last_use_ms) > self.keep_alive_ms
        )
        self._last_use_ms = now_ms
        if cold:
            return float(self.penalty.sample(rng))
        return 0.0

    def reset(self) -> None:
        """Forget warm state (used between experiment repetitions)."""
        self._last_use_ms = None if self.initial_cold else float("-inf")
