"""Servo configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServoConfig:
    """Tunables of the Servo backend.

    Defaults follow the paper's best configuration: a 20-tick lead (one second
    at 20 Hz), 100-step speculative simulations and a 48-block prefetch
    margin around the view distance.  Loop detection (Section III-C1) and the
    storage cache and prefetcher (Section III-E) are always on.
    """

    #: cloud provider for FaaS and blob storage: "aws" or "azure"
    provider: str = "aws"
    #: how many simulation steps each offload invocation computes
    steps_per_invocation: int = 100
    #: issue the next invocation this many ticks before the current batch runs out
    tick_lead: int = 20
    #: memory configuration of the construct-simulation function (MB)
    simulation_function_memory_mb: int = 1769
    #: memory configuration of the terrain-generation function (MB)
    terrain_function_memory_mb: int = 2048
    #: prefetch terrain this many blocks beyond the view distance
    prefetch_margin_blocks: float = 48.0
    #: run the prefetcher every this many ticks
    prefetch_interval_ticks: int = 10
    #: capacity of the server-local terrain cache (objects)
    cache_capacity_objects: int = 4096

    def __post_init__(self) -> None:
        if self.provider not in ("aws", "azure"):
            raise ValueError(f"unknown provider {self.provider!r}; expected 'aws' or 'azure'")
        if self.steps_per_invocation < 1:
            raise ValueError("steps_per_invocation must be at least 1")
        if self.tick_lead < 0:
            raise ValueError("tick_lead must be non-negative")
        if self.prefetch_interval_ticks < 1:
            raise ValueError("prefetch_interval_ticks must be at least 1")
