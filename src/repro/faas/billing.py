"""Utilisation-based billing.

FaaS billing has two components: a per-request charge and a charge per
GB-second of execution.  The billing model records every invocation so the
experiments can report cost per hour, which the paper compares to the price of
one c5n.xlarge VM ($0.216 per hour).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faas.providers import BillingRates


@dataclass(frozen=True)
class InvocationCharge:
    """The billed quantities of one invocation."""

    billed_duration_ms: float
    cost_usd: float


@dataclass
class BillingModel:
    """Accumulates invocation charges for one provider."""

    rates: BillingRates
    charges: list[InvocationCharge] = field(default_factory=list)

    def record(self, execution_ms: float, memory_mb: int) -> InvocationCharge:
        """Record one invocation and return its charge."""
        increment = self.rates.billing_increment_ms
        billed_ms = max(self.rates.minimum_billed_ms, execution_ms)
        # Round up to the billing increment, as providers do.
        billed_ms = increment * -(-billed_ms // increment)
        gb_seconds = (memory_mb / 1024.0) * (billed_ms / 1000.0)
        cost = (
            self.rates.usd_per_million_requests / 1_000_000.0
            + gb_seconds * self.rates.usd_per_gb_second
        )
        charge = InvocationCharge(billed_duration_ms=billed_ms, cost_usd=cost)
        self.charges.append(charge)
        return charge

    # -- summaries --------------------------------------------------------------------

    def total_cost_usd(self) -> float:
        return sum(charge.cost_usd for charge in self.charges)
