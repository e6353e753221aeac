"""Provider profiles: AWS Lambda and Azure Functions.

A profile bundles the parts of a provider's behaviour that the experiments
depend on: invocation overhead (network + control plane), cold-start penalty
and keep-alive time, and the billing rates used for the paper's cost estimate
(Section IV-C: running Servo costs $0.216-0.244 per hour, comparable to one
c5n.xlarge at $0.216 per hour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.latency import LatencyModel, LogNormalLatency


@dataclass(frozen=True)
class BillingRates:
    """Utilisation-based billing rates of a FaaS provider."""

    usd_per_million_requests: float
    usd_per_gb_second: float
    #: billing granularity (AWS bills per 1 ms, Azure per 1 ms as well)
    billing_increment_ms: float = 1.0
    #: minimum billed duration per invocation
    minimum_billed_ms: float = 1.0


@dataclass(frozen=True)
class ProviderProfile:
    """Latency and billing behaviour of one FaaS provider."""

    name: str
    #: request/response overhead outside the function body
    invocation_overhead: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median_ms=45.0, sigma=0.30, floor_ms=15.0, cap_ms=400.0)
    )
    #: additional latency paid when no warm execution environment is available
    cold_start_penalty: LatencyModel = field(
        default_factory=lambda: LogNormalLatency(median_ms=1600.0, sigma=0.40, floor_ms=500.0, cap_ms=4500.0)
    )
    #: how long execution environments stay warm after last use
    keep_alive_ms: float = 7 * 60 * 1000.0
    billing: BillingRates = field(
        default_factory=lambda: BillingRates(
            usd_per_million_requests=0.20, usd_per_gb_second=0.0000166667
        )
    )


AWS_LAMBDA = ProviderProfile(
    name="aws-lambda",
    invocation_overhead=LogNormalLatency(median_ms=42.0, sigma=0.28, floor_ms=15.0, cap_ms=350.0),
    cold_start_penalty=LogNormalLatency(median_ms=1500.0, sigma=0.40, floor_ms=450.0, cap_ms=4500.0),
    keep_alive_ms=7 * 60 * 1000.0,
    billing=BillingRates(usd_per_million_requests=0.20, usd_per_gb_second=0.0000166667),
)

AZURE_FUNCTIONS = ProviderProfile(
    name="azure-functions",
    invocation_overhead=LogNormalLatency(median_ms=58.0, sigma=0.32, floor_ms=20.0, cap_ms=500.0),
    cold_start_penalty=LogNormalLatency(median_ms=2400.0, sigma=0.45, floor_ms=700.0, cap_ms=8000.0),
    keep_alive_ms=5 * 60 * 1000.0,
    billing=BillingRates(usd_per_million_requests=0.20, usd_per_gb_second=0.000016),
)


def provider_by_name(name: str) -> ProviderProfile:
    """Look up a provider profile ("aws" or "azure")."""
    lowered = name.lower()
    if lowered in ("aws", "aws-lambda", "lambda"):
        return AWS_LAMBDA
    if lowered in ("azure", "azure-functions"):
        return AZURE_FUNCTIONS
    raise ValueError(f"unknown provider {name!r}; expected 'aws' or 'azure'")
