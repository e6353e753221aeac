"""Storage backend interface.

All storage implementations store named binary objects and report, for every
operation, the virtual latency the caller should account.  Latency is returned
rather than applied so callers can decide whether an operation blocks the game
loop (synchronous load) or happens in the background (periodic write-back).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.world.coords import CHUNK_KEY_PREFIX


class ObjectNotFoundError(KeyError):
    """Raised when reading a key that does not exist."""


@dataclass(frozen=True)
class StorageOperation:
    """The outcome of one storage operation."""

    key: str
    latency_ms: float
    size_bytes: int
    hit: bool = True        # False for cache misses (cache backends only)
    data: bytes | None = None


class StorageBackend:
    """Interface implemented by every storage backend."""

    name: str = "abstract"

    def read(self, key: str) -> StorageOperation:
        """Read an object; raises :class:`ObjectNotFoundError` if absent."""
        raise NotImplementedError

    def write(self, key: str, data: bytes) -> StorageOperation:
        """Write (create or overwrite) an object."""
        raise NotImplementedError

    def delete(self, key: str) -> StorageOperation:
        """Delete an object; deleting a missing key is a no-op."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def list_keys(self) -> list[str]:
        raise NotImplementedError

    def size_bytes(self, key: str) -> int:
        """Size of a stored object; raises :class:`ObjectNotFoundError` if absent."""
        raise NotImplementedError


class DictBackedStorage(StorageBackend):
    """Shared plumbing for backends that keep objects in a dictionary."""

    def __init__(self) -> None:
        self._objects: dict[str, bytes] = {}
        #: how many stored keys are chunk keys (start with ``CHUNK_KEY_PREFIX``)
        self._chunk_objects = 0

    def exists(self, key: str) -> bool:
        return key in self._objects

    def list_keys(self) -> list[str]:
        return sorted(self._objects)

    def size_bytes(self, key: str) -> int:
        if key not in self._objects:
            raise ObjectNotFoundError(key)
        return len(self._objects[key])

    def _get(self, key: str) -> bytes:
        if key not in self._objects:
            raise ObjectNotFoundError(key)
        return self._objects[key]

    def _put(self, key: str, data: bytes) -> None:
        if key not in self._objects and key.startswith(CHUNK_KEY_PREFIX):
            self._chunk_objects += 1
        self._objects[key] = bytes(data)

    def _remove(self, key: str) -> int:
        data = self._objects.pop(key, None)
        if data is None:
            return 0
        if key.startswith(CHUNK_KEY_PREFIX):
            self._chunk_objects -= 1
        return len(data)

    @property
    def chunk_object_count(self) -> int:
        """How many stored objects are chunks."""
        return self._chunk_objects
