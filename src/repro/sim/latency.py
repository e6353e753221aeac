"""Latency distribution models.

Every remote interaction in the reproduction (FaaS invocation, blob download,
network hop) samples its duration from one of these models.  The parameters of
the concrete distributions are fitted to the values the paper reports; the
fits are documented where the models are instantiated (``repro.faas`` and
``repro.storage``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class LatencyModel:
    """Base class for latency models.

    Subclasses implement :meth:`sample`, which draws one latency in
    milliseconds using the provided generator.
    """

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError


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
