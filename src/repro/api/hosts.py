"""The host registry: every runnable game topology, looked up by name.

A *host* is anything satisfying the :class:`~repro.workload.bots.GameHost`
surface — a single :class:`~repro.server.gameloop.GameServer` or a
:class:`~repro.cluster.coordinator.ClusterCoordinator`.  Variants register
themselves with :func:`register_host` where they are defined::

    @register_host("servo")
    def build_servo_server(engine, game_config=None, servo_config=None, ...):
        ...

:func:`build_host` then constructs any variant by name, passing only the
optional knobs (``servo_config``, ``shards``) the factory's signature accepts
— there is no per-name branching anywhere.  Passing a knob a host does not
accept is an error that names the host and the knob, rather than a silent
no-op.

Third-party variants plug in the same way: define a factory in your module,
decorate it, and import the module before building (the built-in variants are
imported automatically on first lookup).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Callable

from repro.api.registry import Registry

#: the optional keyword knobs a host factory may accept, in canonical order
HOST_KNOBS = ("servo_config", "shards")


def _load_builtin_hosts() -> None:
    """Import the modules whose decorators register the built-in variants."""
    import repro.cluster.assembly  # noqa: F401  (registers *-cluster)
    import repro.core.servo  # noqa: F401  (registers servo)
    import repro.server.variants  # noqa: F401  (registers opencraft, minecraft)


HOSTS = Registry("host", loader=_load_builtin_hosts)


@dataclass(frozen=True)
class HostEntry:
    """One registered host variant."""

    name: str
    factory: Callable[..., Any]
    #: True when the factory builds a multi-shard cluster coordinator
    cluster: bool
    #: which of :data:`HOST_KNOBS` the factory's signature accepts
    knobs: frozenset[str]

    def build(self, engine, game_config=None, **knobs) -> Any:
        """Invoke the factory with exactly the knobs it accepts.

        Knobs with value ``None`` are dropped (the factory's defaults apply);
        a non-``None`` knob the factory does not accept raises ``ValueError``.
        """
        kwargs = {}
        for knob, value in knobs.items():
            if knob not in HOST_KNOBS:
                raise ValueError(
                    f"unknown host knob {knob!r}; expected one of {list(HOST_KNOBS)}"
                )
            if value is None:
                continue
            if knob not in self.knobs:
                raise ValueError(
                    f"host {self.name!r} does not accept the {knob!r} knob"
                    f" (accepted: {sorted(self.knobs) or 'none'})"
                )
            kwargs[knob] = value
        return self.factory(engine, game_config, **kwargs)


def register_host(name: str, *, cluster: bool = False, replace: bool = False):
    """Class/function decorator registering a host factory under ``name``.

    The factory must accept ``(engine, game_config=None)`` positionally; the
    optional knobs it supports (``servo_config``, ``shards``) are discovered
    from its signature, so :func:`build_host` can delegate uniformly.
    """

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        parameters = inspect.signature(factory).parameters
        knobs = frozenset(knob for knob in HOST_KNOBS if knob in parameters)
        HOSTS.register(name, HostEntry(name, factory, cluster, knobs), replace=replace)
        return factory

    return decorator


def host_entry(name: str) -> HostEntry:
    """Look up a registered host (importing the built-ins first)."""
    return HOSTS.get(name)


def host_names() -> list[str]:
    return HOSTS.names()


def cluster_host_names() -> frozenset[str]:
    """The registered names that build multi-shard clusters."""
    return frozenset(name for name, entry in HOSTS.items() if entry.cluster)


def build_host(
    name: str,
    engine,
    game_config=None,
    *,
    servo_config=None,
    shards: int | None = None,
    workers: int | None = None,
):
    """Build a registered host by name.

    ``servo_config`` and ``shards`` are forwarded only when given (not
    ``None``); giving one to a host that does not accept it is a
    ``ValueError``.
    """
    # Residue of the removed process pool; last reader is bench/workloads.py:166.
    if workers not in (None, 1):
        raise ValueError(
            f"host worker processes were removed; workers must be None or 1, got {workers!r}"
        )
    return host_entry(name).build(engine, game_config, servo_config=servo_config, shards=shards)
