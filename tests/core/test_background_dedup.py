"""The GC's deeper dedup pass (Section 4.7).

Inline dedup only checks recently written and frequently deduplicated
data; the background pass catches the rest. These tests disable inline
dedup so the background pass does all the work, then verify that
correctness is preserved and that GC can subsequently reclaim the
duplicate cblocks.
"""

import pytest

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes


@pytest.fixture
def array():
    return PurityArray.create(ArrayConfig.small(inline_dedup=False))


def test_background_pass_finds_missed_duplicates(array, stream):
    array.create_volume("v", 2 * MIB)
    payload = unique_bytes(16 * KIB, stream)
    for copy in range(6):
        array.write("v", copy * 64 * KIB, payload)
    before = array.reduction_report()
    assert before.dedup_ratio == pytest.approx(1.0)  # inline was off
    remapped, bytes_saved = array.gc.background_dedup()
    assert remapped >= 5
    assert bytes_saved >= 5 * 16 * KIB
    after = array.reduction_report()
    assert after.dedup_ratio > 4.0


def test_data_intact_after_background_dedup(array, stream):
    array.create_volume("v", 2 * MIB)
    blocks = {}
    shared = unique_bytes(16 * KIB, stream)
    for copy in range(4):
        array.write("v", copy * 32 * KIB, shared)
        blocks[copy * 32 * KIB] = shared
    for block in range(4, 8):
        payload = unique_bytes(16 * KIB, stream)
        array.write("v", block * 32 * KIB, payload)
        blocks[block * 32 * KIB] = payload
    array.gc.background_dedup()
    array.datapath.drop_caches()
    for offset, payload in blocks.items():
        data, _ = array.read("v", offset, 16 * KIB)
        assert data == payload, "offset %d" % offset


def test_unique_data_never_remapped(array, stream):
    array.create_volume("v", MIB)
    for block in range(8):
        array.write("v", block * 32 * KIB, unique_bytes(16 * KIB, stream))
    remapped, bytes_saved = array.gc.background_dedup()
    assert remapped == 0
    assert bytes_saved == 0


def test_background_dedup_then_gc_reclaims_space(array, stream):
    array.create_volume("v", 4 * MIB)
    payload = unique_bytes(16 * KIB, stream)
    for copy in range(40):  # enough duplicates to span segments
        array.write("v", copy * 32 * KIB, payload)
    array.drain()
    physical_before = array.reduction_report().physical_stored_bytes
    array.gc.background_dedup()
    array.run_gc(max_segments=100)
    physical_after = array.reduction_report().physical_stored_bytes
    assert physical_after < physical_before / 4
    array.datapath.drop_caches()
    for copy in range(40):
        data, _ = array.read("v", copy * 32 * KIB, 16 * KIB)
        assert data == payload


def test_background_dedup_is_idempotent(array, stream):
    array.create_volume("v", MIB)
    payload = unique_bytes(16 * KIB, stream)
    array.write("v", 0, payload)
    array.write("v", 64 * KIB, payload)
    first, _ = array.gc.background_dedup()
    second, _ = array.gc.background_dedup()
    assert first == 1
    assert second == 0  # already remapped
    data, _ = array.read("v", 64 * KIB, 16 * KIB)
    assert data == payload


def test_background_dedup_survives_recovery(array, stream):
    array.create_volume("v", MIB)
    payload = unique_bytes(16 * KIB, stream)
    array.write("v", 0, payload)
    array.write("v", 64 * KIB, payload)
    array.gc.background_dedup()
    config = array.config
    shelf, boot, clock = array.crash()
    recovered, _report = PurityArray.recover(config, shelf, boot, clock)
    data, _ = recovered.read("v", 64 * KIB, 16 * KIB)
    assert data == payload


def test_background_dedup_keeps_a_newer_overlapping_write(array, stream):
    """The remapped extent keeps its rank, so the newer 4 KiB write that
    overlaps it at another key still wins there."""
    array.create_volume("v", MIB)
    payload = unique_bytes(16 * KIB, stream)
    patch = unique_bytes(4 * KIB, stream)
    array.write("v", 0, payload)
    array.write("v", 64 * KIB, payload)
    array.write("v", 68 * KIB, patch)
    array.drain()
    assert array.gc.background_dedup() == (1, 16 * KIB)
    array.datapath.drop_caches()
    expected = payload[:4 * KIB] + patch + payload[8 * KIB:]
    assert array.read("v", 64 * KIB, 16 * KIB)[0] == expected
