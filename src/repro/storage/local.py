"""Local-disk storage model.

The baseline the paper measures in Figure 13: terrain loads from the game
server's local disk complete within a few milliseconds, with a handful of
slower samples during the first seconds after boot (cold page cache).
"""

from __future__ import annotations

import numpy as np

from repro.sim.latency import LogNormalLatency
from repro.storage.base import DictBackedStorage, StorageOperation

#: reads served while the page cache is cold after boot
BOOT_WINDOW_READS = 12


class LocalDiskStorage(DictBackedStorage):
    """Local disk with page-cache-like behaviour.

    Calibration (Figure 13, "Local"): 99.9 % of reads complete within ~16 ms
    and the maximum stays near ~120 ms; the slow samples happen during the
    boot window while the page cache is cold.
    """

    name = "local"

    def __init__(self, rng: np.random.Generator) -> None:
        super().__init__()
        self._rng = rng
        self._reads_served = 0
        self._read_latency = LogNormalLatency(median_ms=1.6, sigma=0.45, floor_ms=0.3, cap_ms=40.0)
        self._boot_latency = LogNormalLatency(median_ms=35.0, sigma=0.55, floor_ms=10.0, cap_ms=125.0)
        self._write_latency = LogNormalLatency(median_ms=2.5, sigma=0.5, floor_ms=0.5, cap_ms=60.0)
        #: probability a boot-window read misses the page cache
        self._boot_miss_probability = 0.25

    def read(self, key: str) -> StorageOperation:
        data = self._get(key)
        in_boot_window = self._reads_served < BOOT_WINDOW_READS
        self._reads_served += 1
        if in_boot_window and self._rng.random() < self._boot_miss_probability:
            latency = self._boot_latency.sample(self._rng)
        else:
            latency = self._read_latency.sample(self._rng)
        return StorageOperation(
            key=key, latency_ms=latency, size_bytes=len(data), data=data
        )

    def write(self, key: str, data: bytes) -> StorageOperation:
        self._put(key, data)
        latency = self._write_latency.sample(self._rng)
        return StorageOperation(key=key, latency_ms=latency, size_bytes=len(data))

    def delete(self, key: str) -> StorageOperation:
        size = self._remove(key)
        return StorageOperation(key=key, latency_ms=0.5, size_bytes=size)
