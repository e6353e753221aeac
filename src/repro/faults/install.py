"""Wiring a fault plan into a built host.

:func:`install_faults` is the single entry point: it connects a validated
:class:`~repro.faults.plan.FaultPlan` to whichever host the run built — a
single :class:`~repro.server.GameServer` or a
:class:`~repro.cluster.ClusterCoordinator` — and returns the
:class:`~repro.faults.injector.FaultInjector` that drives it (or ``None`` for
an empty plan, in which case **nothing** is attached and the run is
bit-identical to a fault-free one).

Section by section:

* ``faas`` faults attach the injector to every FaaS platform the host uses
  (Servo variants; a host without a platform rejects the section).
* ``net`` faults build one shared :class:`~repro.net.channel.FaultyMessageChannel`,
  held by the injector, and attach it to every server, present and future
  (the coordinator wires a respawned shard through
  :meth:`~repro.faults.injector.FaultInjector.wire`).
* ``degradation`` gives every server its own
  :class:`~repro.faults.degradation.DegradationController`.
* ``shards`` kills require a cluster host; a single server rejects them.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.server.gameloop import GameServer


def install_faults(
    host: GameServer | ClusterCoordinator, plan: Optional[FaultPlan]
) -> Optional[FaultInjector]:
    """Wire ``plan`` into ``host``; returns the injector (None if empty)."""
    if plan is None or plan.is_empty:
        return None

    is_cluster = isinstance(host, ClusterCoordinator)
    servers: list[GameServer] = list(host.shards) if is_cluster else [host]
    injector = FaultInjector(host.engine, plan)

    if plan.faas is not None and plan.faas.active:
        # Shards may share one platform: dedupe by identity, in shard order.
        platforms = dict.fromkeys(getattr(server.runtime, "platform", None) for server in servers)
        platforms.pop(None, None)
        if not platforms:
            raise ValueError(
                f"the fault plan injects FaaS faults but host {host.name!r} "
                "has no FaaS platform (use a servo variant)"
            )
        for platform in platforms:
            platform.fault_injector = injector

    for server in servers:
        injector.wire(server)

    host.fault_injector = injector
    if not is_cluster and plan.shards:
        raise ValueError(
            f"the fault plan schedules shard kills but host {host.name!r} "
            "is a single server (use a cluster variant)"
        )
    return injector
