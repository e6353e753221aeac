"""Tests for local-disk and blob storage backends."""

import numpy as np
import pytest

from repro.sim.metrics import percentile
from repro.storage.base import ObjectNotFoundError
from repro.storage.blob import (
    AZURE_BLOB_STANDARD,
    AWS_S3_STANDARD,
    BlobStorage,
    download_latency_profile,
)
from repro.storage.local import LocalDiskStorage


@pytest.fixture
def local(rng):
    return LocalDiskStorage(rng=rng)


@pytest.fixture
def blob(rng):
    return BlobStorage(rng=rng, profile=AZURE_BLOB_STANDARD)


def test_local_write_read_round_trip(local):
    local.write("key", b"payload")
    operation = local.read("key")
    assert operation.data == b"payload"
    assert operation.size_bytes == 7
    assert operation.latency_ms > 0


def test_local_read_missing_raises(local):
    with pytest.raises(ObjectNotFoundError):
        local.read("missing")


def test_local_delete_and_exists(local):
    local.write("key", b"x")
    assert local.exists("key")
    local.delete("key")
    assert not local.exists("key")
    # deleting again is a no-op
    local.delete("key")


def test_local_list_keys_and_sizes(local):
    local.write("b", b"22")
    local.write("a", b"1")
    assert local.list_keys() == ["a", "b"]
    assert local.size_bytes("b") == 2
    with pytest.raises(ObjectNotFoundError):
        local.size_bytes("zzz")


def test_local_latency_is_fast_after_boot(rng):
    storage = LocalDiskStorage(rng=rng)
    storage.write("key", b"x" * 100)
    latencies = [storage.read("key").latency_ms for _ in range(500)]
    steady = latencies[50:]
    assert percentile(steady, 99) < 20.0
    assert max(latencies) < 130.0


def test_blob_read_latency_has_heavy_tail(blob):
    blob.write("key", b"x" * 1000)
    latencies = [blob.read("key").latency_ms for _ in range(4000)]
    assert percentile(latencies, 50) < 25.0
    assert percentile(latencies, 99.9) > 60.0
    assert max(latencies) < 700.0


def test_blob_counts_operations_and_bytes(blob):
    blob.write("a", b"123")
    blob.read("a")
    blob.read("a")
    assert blob.write_count == 1
    assert blob.read_count == 2
    assert blob.bytes_written == 3
    assert blob.bytes_read == 6


def test_blob_transfer_time_scales_with_size(rng):
    storage = BlobStorage(rng=rng, profile=AWS_S3_STANDARD)
    storage.write("small", b"x")
    storage.write("large", b"x" * 5_000_000)
    small = min(storage.read("small").latency_ms for _ in range(50))
    large = min(storage.read("large").latency_ms for _ in range(50))
    assert large > small + 50.0


def test_download_profiles_cover_the_figure_3_matrix(rng):
    for kind in ("player", "terrain"):
        for tier in ("premium", "standard"):
            model = download_latency_profile(kind, tier)
            sample = model.sample(rng)
            assert sample > 0
    with pytest.raises(ValueError):
        download_latency_profile("unknown", "standard")


def test_download_terrain_is_slower_than_player_data():
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    player = download_latency_profile("player", "standard")
    terrain = download_latency_profile("terrain", "standard")
    player_mean = np.mean([player.sample(rng_a) for _ in range(500)])
    terrain_mean = np.mean([terrain.sample(rng_b) for _ in range(500)])
    assert terrain_mean > player_mean
