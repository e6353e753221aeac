"""Area-of-interest subscriptions with dyconit-style bounded staleness.

Instead of broadcasting the whole world to every session each tick, each
session subscribes to a chunk radius around its avatar; dirty events are
routed through an incremental chunk-to-subscriber index and delivered as
delta-compressed batches whose flush cadence is governed by per-subscription
error budgets (ticks of staleness, blocks of drift) — the dynamic-consistency
model of the Opencraft/dyconits line.
"""

from repro.interest.subscriptions import (
    MAX_DRIFT_BLOCKS,
    MAX_STALENESS_TICKS,
    NEAR_RADIUS_CHUNKS,
    FlushReport,
    InterestMap,
    Subscription,
    SubscriptionState,
)

__all__ = [
    "InterestMap",
    "Subscription",
    "SubscriptionState",
    "FlushReport",
    "NEAR_RADIUS_CHUNKS",
    "MAX_STALENESS_TICKS",
    "MAX_DRIFT_BLOCKS",
]
