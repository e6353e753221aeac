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
* ``net`` faults build one shared :class:`~repro.net.channel.FaultyMessageChannel`
  and attach it to every server, present and future (respawned shards are
  wired through the coordinator's ``shard_wirers``).
* ``degradation`` gives every server its own
  :class:`~repro.faults.degradation.DegradationController`.
* ``shards`` kills require a cluster host; a single server rejects them.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.cluster.coordinator import ClusterCoordinator
from repro.faults.degradation import DegradationController
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.channel import FaultyMessageChannel
from repro.server.gameloop import GameServer

Host = Union[GameServer, ClusterCoordinator]


def _platform_of(server: GameServer):
    return getattr(server.runtime, "platform", None)


def install_faults(host: Host, plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    """Wire ``plan`` into ``host``; returns the injector (None if empty)."""
    if plan is None or plan.is_empty:
        return None

    is_cluster = isinstance(host, ClusterCoordinator)
    servers: list[GameServer] = list(host.shards) if is_cluster else [host]
    engine = host.engine
    injector = FaultInjector(engine, plan)

    if plan.faas is not None and plan.faas.active:
        # Shards may share one platform: dedupe by identity, in shard order.
        platforms = dict.fromkeys(
            platform for platform in map(_platform_of, servers) if platform is not None
        )
        if not platforms:
            raise ValueError(
                f"the fault plan injects FaaS faults but host {host.name!r} "
                "has no FaaS platform (use a servo variant)"
            )
        for platform in platforms:
            platform.fault_injector = injector

    channel: Optional[FaultyMessageChannel] = None
    if plan.net is not None and plan.net.active:
        channel = FaultyMessageChannel(engine, injector)

    def wire_server(server: GameServer) -> None:
        if channel is not None:
            server.message_channel = channel
            for session in server.sessions.values():
                session.attach_channel(channel)
        if plan.degradation is not None:
            server.degradation = DegradationController(
                plan.degradation,
                engine.metrics,
                record=injector.record,
                server_name=server.name,
            )

    for server in servers:
        wire_server(server)

    host.fault_injector = injector
    if is_cluster:
        host.shard_wirers.append(wire_server)
    elif plan.shards:
        raise ValueError(
            f"the fault plan schedules shard kills but host {host.name!r} "
            "is a single server (use a cluster variant)"
        )
    return injector
