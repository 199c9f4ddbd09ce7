"""Whole-array basics: volumes, writes, reads, unmap, accounting."""

import pytest

from repro.errors import (
    VolumeError,
    VolumeExistsError,
    VolumeNotFoundError,
)
from repro.units import KIB, MIB, SECTOR

from tests.core.conftest import compressible_bytes, unique_bytes


def test_create_volume_and_roundtrip(array, volume):
    payload = compressible_bytes(4 * KIB)
    array.write(volume, 0, payload)
    data, latency = array.read(volume, 0, 4 * KIB)
    assert data == payload
    assert latency >= 0


def test_volume_catalog(array):
    array.create_volume("a", MIB)
    array.create_volume("b", 2 * MIB)
    assert array.volumes.volume_names() == ["a", "b"]
    assert array.volumes.volume_size("b") == 2 * MIB
    assert array.volumes.provisioned_bytes() == 3 * MIB


def test_duplicate_volume_rejected(array, volume):
    with pytest.raises(VolumeExistsError):
        array.create_volume(volume, MIB)


def test_unknown_volume_rejected(array):
    with pytest.raises(VolumeNotFoundError):
        array.read("ghost", 0, SECTOR)


def test_invalid_volume_size(array):
    with pytest.raises(VolumeError):
        array.create_volume("bad", 100)  # not sector aligned
    with pytest.raises(VolumeError):
        array.create_volume("bad", 0)


def test_out_of_range_io_rejected(array, volume):
    size = array.volumes.volume_size(volume)
    with pytest.raises(VolumeError):
        array.write(volume, size, b"\x00" * SECTOR)
    with pytest.raises(VolumeError):
        array.read(volume, size - SECTOR, 2 * SECTOR)


def test_unaligned_write_rejected(array, volume):
    with pytest.raises(VolumeError):
        array.write(volume, 100, b"\x00" * SECTOR)
    with pytest.raises(VolumeError):
        array.write(volume, 0, b"\x00" * 100)


def test_unwritten_ranges_read_zero(array, volume):
    data, _ = array.read(volume, 512 * KIB, 4 * KIB)
    assert data == b"\x00" * (4 * KIB)


def test_overwrite_returns_newest(array, volume, stream):
    first = unique_bytes(4 * KIB, stream)
    second = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, first)
    array.write(volume, 0, second)
    data, _ = array.read(volume, 0, 4 * KIB)
    assert data == second


def test_partial_overwrite_merges(array, volume, stream):
    base = unique_bytes(8 * KIB, stream)
    patch = unique_bytes(2 * KIB, stream)
    array.write(volume, 0, base)
    array.write(volume, 2 * KIB, patch)
    data, _ = array.read(volume, 0, 8 * KIB)
    expected = base[: 2 * KIB] + patch + base[4 * KIB :]
    assert data == expected


def test_large_write_spans_cblocks(array, volume, stream):
    payload = unique_bytes(55 * KIB + 512, stream)  # > MAX_CBLOCK, odd size
    array.write(volume, 64 * KIB, payload)
    data, _ = array.read(volume, 64 * KIB, len(payload))
    assert data == payload


def test_read_straddling_writes(array, volume, stream):
    a = unique_bytes(4 * KIB, stream)
    b = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, a)
    array.write(volume, 4 * KIB, b)
    data, _ = array.read(volume, 2 * KIB, 4 * KIB)
    assert data == a[2 * KIB :] + b[: 2 * KIB]


def test_unmap_zeroes_range(array, volume, stream):
    payload = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, payload)
    array.unmap(volume, 2 * KIB, 4 * KIB)
    data, _ = array.read(volume, 0, 8 * KIB)
    expected = payload[: 2 * KIB] + b"\x00" * (4 * KIB) + payload[6 * KIB :]
    assert data == expected


def test_write_after_unmap(array, volume, stream):
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    array.unmap(volume, 0, 4 * KIB)
    fresh = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, fresh)
    data, _ = array.read(volume, 0, 4 * KIB)
    assert data == fresh


def test_latencies_recorded(array, volume):
    array.write(volume, 0, compressible_bytes(4 * KIB))
    array.read(volume, 0, 4 * KIB)
    registry = array.obs.metrics
    assert registry.histogram("io.write.latency").count == 1
    assert registry.histogram("io.read.latency").count == 1
    assert registry.histogram("io.write.latency").mean > 0


def test_write_latency_is_nvram_commit_not_flush(array, volume):
    """Acked latency is the NVRAM commit: well under a millisecond."""
    latency = array.write(volume, 0, compressible_bytes(32 * KIB))
    assert latency < 0.001


def test_many_writes_roundtrip(array, volume, stream):
    """Fill enough data to force segio flushes and drains."""
    blocks = {}
    for index in range(60):
        offset = (index * 16 * KIB) % (2 * MIB - 16 * KIB)
        payload = unique_bytes(16 * KIB, stream)
        array.write(volume, offset, payload)
        blocks[offset] = payload
    for offset, payload in blocks.items():
        data, _ = array.read(volume, offset, 16 * KIB)
        assert data == payload, "offset %d" % offset
    assert array.segwriter.segios_flushed > 0


def test_destroy_volume_removes_catalog_and_space(array, volume, stream):
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.destroy_volume(volume)
    with pytest.raises(VolumeNotFoundError):
        array.read(volume, 0, SECTOR)
    report = array.reduction_report()
    assert report.logical_live_bytes == 0


def test_crashed_array_rejects_operations(array, volume):
    array.crash()
    with pytest.raises(RuntimeError):
        array.read(volume, 0, SECTOR)
