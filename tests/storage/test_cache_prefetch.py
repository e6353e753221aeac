"""Tests for the server-local cache in front of remote storage."""

import numpy as np
import pytest

from repro.storage.blob import AZURE_BLOB_STANDARD, BlobStorage
from repro.storage.cache import CachedStorage


@pytest.fixture
def cache_and_blob(rng):
    blob = BlobStorage(rng=np.random.default_rng(7), profile=AZURE_BLOB_STANDARD)
    cache = CachedStorage(remote=blob, rng=rng, capacity_objects=16)
    return cache, blob


def test_cache_miss_then_hit(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"value")
    first = cache.read("key")
    second = cache.read("key")
    assert first.hit is False
    assert second.hit is True
    assert second.latency_ms < first.latency_ms
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert 0 < cache.stats.hits < cache.stats.hits + cache.stats.misses


def test_cache_prefetch_makes_reads_hits(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"value")
    paid = cache.prefetch("key")
    assert paid > 0.0
    assert cache.is_cached("key")
    assert cache.read("key").hit is True
    # prefetching again is free
    assert cache.prefetch("key") == 0.0
    # prefetching a missing object is a no-op
    assert cache.prefetch("nope") == 0.0


def test_cache_write_behind_flush(cache_and_blob):
    cache, blob = cache_and_blob
    cache.write("new-key", b"data")
    assert not blob.exists("new-key")
    assert sorted(cache._dirty) == ["new-key"]
    operations = cache.flush()
    assert len(operations) == 1
    assert blob.exists("new-key")
    assert sorted(cache._dirty) == []


def test_cache_eviction_respects_capacity_and_preserves_dirty_data(rng):
    blob = BlobStorage(rng=np.random.default_rng(3), profile=AZURE_BLOB_STANDARD)
    cache = CachedStorage(remote=blob, rng=rng, capacity_objects=4)
    for index in range(8):
        cache.write(f"key-{index}", b"x")
    assert len(cache._entries) <= 4
    # Every written object survives somewhere (cache or remote).
    for index in range(8):
        assert cache.exists(f"key-{index}")


def test_cache_delete_removes_everywhere(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"v")
    cache.read("key")
    cache.delete("key")
    assert not cache.exists("key")
    assert not blob.exists("key")


def test_cache_rejects_zero_capacity(rng):
    blob = BlobStorage(rng=np.random.default_rng(3))
    with pytest.raises(ValueError):
        CachedStorage(remote=blob, rng=rng, capacity_objects=0)


def test_cache_read_latency_much_lower_than_remote(cache_and_blob):
    cache, blob = cache_and_blob
    blob.write("key", b"x" * 100)
    cache.prefetch("key")
    hits = [cache.read("key").latency_ms for _ in range(300)]
    assert max(hits) < 40.0

