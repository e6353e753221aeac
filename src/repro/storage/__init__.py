"""Storage substrate.

Models the three storage options the paper compares for terrain data
(Figure 13): local disk, serverless blob storage (with standard and premium
tiers, Figure 3), and serverless storage fronted by Servo's local cache with
distance-based prefetching.
"""

from repro.storage.base import ObjectNotFoundError, StorageBackend, StorageOperation
from repro.storage.blob import (
    BlobStorage,
    BlobTierProfile,
    AZURE_BLOB_STANDARD,
    AWS_S3_STANDARD,
    download_latency_profile,
)
from repro.storage.cache import CachedStorage, CacheStatistics
from repro.storage.local import LocalDiskStorage
from repro.storage.prefetch import DistancePrefetchPolicy

__all__ = [
    "StorageBackend",
    "StorageOperation",
    "ObjectNotFoundError",
    "LocalDiskStorage",
    "BlobStorage",
    "BlobTierProfile",
    "AWS_S3_STANDARD",
    "AZURE_BLOB_STANDARD",
    "download_latency_profile",
    "CachedStorage",
    "CacheStatistics",
    "DistancePrefetchPolicy",
]
