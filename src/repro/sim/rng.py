"""Named, reproducible random streams.

Experiments need several independent sources of randomness (player behaviour,
FaaS latency, storage latency, cold starts, tick noise).  Drawing them from a
single generator couples unrelated subsystems: adding one extra sample in the
storage model would perturb player behaviour.  ``RandomStreams`` derives one
:class:`numpy.random.Generator` per named stream from a root seed so each
subsystem has its own stable stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


class RandomStreams:
    """Factory of named, independent random generators."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical sequence.
        """
        if name not in self._streams:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode("utf-8")).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._streams)})"
