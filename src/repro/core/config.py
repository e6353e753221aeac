"""Servo configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServoConfig:
    """Tunables of the Servo backend.

    Defaults follow the paper's best configuration: a 20-tick lead (one second
    at 20 Hz) and 100-step speculative simulations.  Loop detection (Section
    III-C1) and the storage cache and prefetcher (Section III-E) are always
    on; the function memory sizes and the prefetch cadence are constants of
    :mod:`repro.core.servo`, the prefetch margin and cache capacity of
    :mod:`repro.storage`.
    """

    #: cloud provider for FaaS and blob storage: "aws" or "azure"
    provider: str = "aws"
    #: how many simulation steps each offload invocation computes
    steps_per_invocation: int = 100
    #: issue the next invocation this many ticks before the current batch runs out
    tick_lead: int = 20

    def __post_init__(self) -> None:
        if self.provider not in ("aws", "azure"):
            raise ValueError(f"unknown provider {self.provider!r}; expected 'aws' or 'azure'")
        for name, value in (
            ("steps_per_invocation", self.steps_per_invocation), ("tick_lead", self.tick_lead)
        ):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.steps_per_invocation < 1:
            raise ValueError("steps_per_invocation must be at least 1")
        if self.tick_lead < 0:
            raise ValueError("tick_lead must be non-negative")
