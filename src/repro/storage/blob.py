"""Serverless blob storage model.

Models the managed object stores the paper uses (AWS S3 and Azure Blob
Storage).  Two calibrations matter:

* **In-cloud access** (Figure 13, "Serverless"): reads from the game server
  running in the same cloud region have a fast body (99th percentile
  ~16 ms) but a heavy tail (99.9th percentile ~226 ms, outliers ~500 ms).
* **Download profile** (Figure 3): end-to-end downloads of player data and
  terrain data over the Internet, for the standard and premium tiers, with
  medians of hundreds of milliseconds and outliers near one second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.latency import LatencyModel, LogNormalLatency, MixtureLatency
from repro.storage.base import DictBackedStorage, StorageOperation


@dataclass(frozen=True)
class BlobTierProfile:
    """Latency/throughput profile of one blob-storage tier."""

    name: str
    #: body of the read latency distribution (same-region access)
    read_fast: LatencyModel
    #: tail of the read latency distribution (throttling, retries)
    read_slow: LatencyModel
    #: probability a read falls in the slow tail
    slow_fraction: float
    #: write latency
    write: LatencyModel
    #: sustained download bandwidth used for size-dependent latency (bytes/ms)
    bandwidth_bytes_per_ms: float = 50_000.0

    def read_model(self) -> LatencyModel:
        return MixtureLatency(
            components=[self.read_fast, self.read_slow],
            weights=[1.0 - self.slow_fraction, self.slow_fraction],
        )


# Calibrated so the "Serverless" curve of Figure 13 is reproduced: 99th
# percentile ~16 ms, 99.9th percentile ~226 ms, outliers near 500 ms.
AZURE_BLOB_STANDARD = BlobTierProfile(
    name="azure-blob-standard",
    read_fast=LogNormalLatency(median_ms=8.5, sigma=0.26, floor_ms=1.0, cap_ms=60.0),
    read_slow=LogNormalLatency(median_ms=170.0, sigma=0.40, floor_ms=70.0, cap_ms=500.0),
    slow_fraction=0.0025,
    write=LogNormalLatency(median_ms=25.0, sigma=0.5, floor_ms=5.0, cap_ms=800.0),
)

AWS_S3_STANDARD = BlobTierProfile(
    name="aws-s3-standard",
    read_fast=LogNormalLatency(median_ms=11.0, sigma=0.3, floor_ms=2.0, cap_ms=80.0),
    read_slow=LogNormalLatency(median_ms=240.0, sigma=0.45, floor_ms=90.0, cap_ms=600.0),
    slow_fraction=0.004,
    write=LogNormalLatency(median_ms=30.0, sigma=0.5, floor_ms=6.0, cap_ms=900.0),
)


class BlobStorage(DictBackedStorage):
    """A serverless blob store with a tier-specific latency profile."""

    def __init__(self, rng: np.random.Generator, profile: BlobTierProfile = AZURE_BLOB_STANDARD) -> None:
        super().__init__()
        self._rng = rng
        self.profile = profile
        self._read_model = profile.read_model()
        self.name = profile.name
        #: running operation counts used by the billing-style summaries
        self.read_count = 0
        self.write_count = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def _transfer_ms(self, size_bytes: int) -> float:
        return float(size_bytes) / self.profile.bandwidth_bytes_per_ms

    def read(self, key: str) -> StorageOperation:
        data = self._get(key)
        latency = self._read_model.sample(self._rng) + self._transfer_ms(len(data))
        self.read_count += 1
        self.bytes_read += len(data)
        return StorageOperation(
            key=key, latency_ms=latency, size_bytes=len(data), data=data
        )

    def write(self, key: str, data: bytes) -> StorageOperation:
        self._put(key, data)
        latency = self.profile.write.sample(self._rng) + self._transfer_ms(len(data))
        self.write_count += 1
        self.bytes_written += len(data)
        return StorageOperation(key=key, latency_ms=latency, size_bytes=len(data))

    def delete(self, key: str) -> StorageOperation:
        size = self._remove(key)
        return StorageOperation(key=key, latency_ms=5.0, size_bytes=size)


# ---------------------------------------------------------------------------------
# Figure 3: end-to-end download latency of game data over the Internet.
# ---------------------------------------------------------------------------------

_DOWNLOAD_PROFILES: dict[tuple[str, str], LatencyModel] = {
    # (data kind, tier) -> latency model.  Terrain objects are an order of
    # magnitude larger than player records, so their downloads are slower and
    # more variable; the premium tier roughly halves the median.
    ("player", "premium"): LogNormalLatency(median_ms=95.0, sigma=0.35, floor_ms=40.0, cap_ms=900.0),
    ("player", "standard"): LogNormalLatency(median_ms=160.0, sigma=0.45, floor_ms=60.0, cap_ms=1050.0),
    ("terrain", "premium"): LogNormalLatency(median_ms=210.0, sigma=0.40, floor_ms=90.0, cap_ms=1000.0),
    ("terrain", "standard"): LogNormalLatency(median_ms=340.0, sigma=0.50, floor_ms=120.0, cap_ms=1100.0),
}


def download_latency_profile(data_kind: str, tier: str) -> LatencyModel:
    """The Figure 3 download latency model for (data kind, tier).

    ``data_kind`` is "player" or "terrain"; ``tier`` is "premium" or
    "standard".
    """
    key = (data_kind.lower(), tier.lower())
    if key not in _DOWNLOAD_PROFILES:
        raise ValueError(
            f"unknown download profile {key!r}; expected data kind in ('player', 'terrain') "
            "and tier in ('premium', 'standard')"
        )
    return _DOWNLOAD_PROFILES[key]
