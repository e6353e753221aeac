"""Generic name registries and the shared unknown-name error.

Hosts, scenarios and experiments are all looked up by name; this module
provides the one :class:`Registry` container they share and the one error
shape every failed lookup produces, so a typo anywhere in the public surface
yields the same actionable message: what kind of name was wrong, and which
names are actually registered.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional


class UnknownNameError(KeyError, ValueError):
    """Raised when a name is not present in a registry.

    Inherits from both :class:`ValueError` (the documented contract for every
    registry lookup) and :class:`KeyError` (what the experiment registry and
    Table I lookups historically raised), so callers written against either
    contract keep working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError.__str__ would repr-quote the message
        return self.message


def unknown_name_error(kind: str, name: object, registered: "list[str] | tuple[str, ...] | Registry") -> UnknownNameError:
    """Build the shared lookup error: unknown ``kind`` plus the registered names."""
    names = sorted(registered.names() if isinstance(registered, Registry) else registered)
    listing = ", ".join(repr(entry) for entry in names) if names else "(none)"
    return UnknownNameError(f"unknown {kind} {name!r}; registered {kind}s: {listing}")


class Registry:
    """A by-name registry with decorator-friendly registration.

    ``kind`` names what is being registered ("host", "scenario", "experiment")
    and appears in lookup-failure messages.

    ``loader``, when given, imports the modules whose decorators register the
    built-in entries.  It runs at most once, lazily, before any lookup or
    listing — and, best-effort, before a registration, so a user registration
    colliding with a built-in name fails at the user's site rather than
    poisoning the lazy import on the next lookup.  The loader is re-entrant:
    while it runs, the built-ins' own registrations skip it (the modules being
    imported sit partially-initialised in ``sys.modules``), and if it fails it
    is retried on the next call.
    """

    def __init__(self, kind: str, loader: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._loader = loader
        self._loader_state = "pending"  # -> "loading" -> "loaded"

    def load_builtins(self) -> None:
        """Run the built-in loader once (no-op while it is already running)."""
        if self._loader is None or self._loader_state != "pending":
            return
        self._loader_state = "loading"
        try:
            self._loader()
        except BaseException:
            self._loader_state = "pending"
            raise
        self._loader_state = "loaded"

    def register(self, name: str, entry: Any, *, replace: bool = False) -> Any:
        # Best-effort: while the package's own import chains are in flight the
        # loader can hit partially-initialised modules — then registration
        # proceeds and the built-ins finish loading lazily at first lookup.
        try:
            self.load_builtins()
        except ImportError:
            pass
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} names must be non-empty strings, got {name!r}")
        if name in self._entries and not replace:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry
        return entry

    def get(self, name: str) -> Any:
        self.load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise unknown_name_error(self.kind, name, self) from None

    def names(self) -> list[str]:
        self.load_builtins()
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Any]]:
        self.load_builtins()
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        self.load_builtins()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        self.load_builtins()
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        self.load_builtins()
        return len(self._entries)
