"""Deterministic fault injection and recovery.

The subsystem is data-driven: a :class:`FaultPlan` (JSON-serializable,
validated eagerly) describes FaaS invocation faults, client-message faults,
scheduled shard kills and the graceful-degradation policy;
:func:`install_faults` wires it into a built host; the
:class:`FaultInjector` draws every fault decision from dedicated named RNG
streams so chaos runs are bit-reproducible, and records them in a
:class:`FaultTimeline` whose digest gates rerun determinism.  An empty plan
installs nothing: the fault-free determinism hashes are untouched.
"""

from repro.faults.degradation import DegradationController
from repro.faults.injector import FaultEvent, FaultInjector, FaultTimeline
from repro.faults.install import install_faults
from repro.faults.plan import (
    DegradationPolicy,
    FaasFaults,
    FaultPlan,
    NetFaults,
    RetryPolicy,
    ShardKill,
)

__all__ = [
    "DegradationController",
    "DegradationPolicy",
    "FaasFaults",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultTimeline",
    "NetFaults",
    "RetryPolicy",
    "ShardKill",
    "install_faults",
]
