"""Crash recovery: correctness under crashes at arbitrary points.

The controller dies (in-memory state discarded); the substrate — SSDs,
NVRAM, boot region — survives. Every acknowledged write must read back
correctly after recovery.
"""

import pytest

from repro.core.array import PurityArray
from repro.core.ha import DualControllerArray
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes


def crash_and_recover(array, full_scan=False):
    from repro.core.recovery import recover_array

    config = array.config
    shelf, boot_region, clock = array.crash()
    return recover_array(
        PurityArray, config, shelf, boot_region, clock, full_scan=full_scan
    )


def test_recover_immediately_after_write(array, volume, stream):
    payload = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, payload)
    recovered, report = crash_and_recover(array)
    data, _ = recovered.read(volume, 0, 8 * KIB)
    assert data == payload
    assert report.raw_writes_replayed >= 1


def _assert_one_recovery_recorded(array):
    registry = array.obs.metrics
    assert registry.counter("recovery.count").value == 1
    assert registry.histogram("recovery.downtime").count == 1


def test_recover_without_obs_records_on_the_survivor(array, volume, stream):
    # No ``obs`` handed over: the survivor makes its own, and the
    # recovery metrics land in it rather than nowhere.
    array.write(volume, 0, unique_bytes(8 * KIB, stream))
    recovered, _report = PurityArray.recover(array.config, *array.crash())
    _assert_one_recovery_recorded(recovered)


def test_controller_failover_records_recovery_metrics(config, stream):
    pair = DualControllerArray(config)
    pair.create_volume("v", 2 * MIB)
    pair.write("v", 0, unique_bytes(8 * KIB, stream))
    pair.fail_primary()
    _assert_one_recovery_recorded(pair.active)


def test_recover_after_drain(array, volume, stream):
    payload = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, payload)
    array.drain()
    recovered, report = crash_and_recover(array)
    data, _ = recovered.read(volume, 0, 8 * KIB)
    assert data == payload
    # Drained state replays nothing from NVRAM.
    assert report.raw_writes_replayed == 0


def test_recover_after_checkpoint(array, volume, stream):
    payload = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, payload)
    array.checkpoint()
    recovered, report = crash_and_recover(array)
    data, _ = recovered.read(volume, 0, 8 * KIB)
    assert data == payload
    assert report.patches_loaded > 0


def test_recovery_preserves_overwrite_order(array, volume, stream):
    old = unique_bytes(4 * KIB, stream)
    new = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, old)
    array.drain()
    array.write(volume, 0, new)  # undrained overwrite
    recovered, _report = crash_and_recover(array)
    data, _ = recovered.read(volume, 0, 4 * KIB)
    assert data == new


def test_recovery_preserves_snapshots(array, volume, stream):
    original = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, original)
    array.snapshot(volume, "keep")
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    recovered, _report = crash_and_recover(array)
    recovered.clone(volume, "keep", "restored")
    data, _ = recovered.read("restored", 0, 4 * KIB)
    assert data == original


def test_recovered_array_accepts_new_writes(array, volume, stream):
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    recovered, _report = crash_and_recover(array)
    fresh = unique_bytes(4 * KIB, stream)
    recovered.write(volume, 8 * KIB, fresh)
    data, _ = recovered.read(volume, 8 * KIB, 4 * KIB)
    assert data == fresh


def test_double_crash(array, volume, stream):
    payload = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, payload)
    first, _ = crash_and_recover(array)
    second, _ = crash_and_recover(first)
    data, _ = second.read(volume, 0, 4 * KIB)
    assert data == payload


def test_recovery_within_failover_budget(array, volume, stream):
    """Frontier-set recovery stays far under the 30 s client timeout."""
    for index in range(30):
        array.write(volume, index * 16 * KIB, unique_bytes(16 * KIB, stream))
    _recovered, report = crash_and_recover(array)
    assert report.total_latency < 30.0
    assert report.total_latency < 1.0  # and in fact well under a second


def test_full_scan_baseline_reads_more_aus(array, volume, stream):
    """The ablation behind Figure 5: frontier scan vs full scan."""
    for index in range(40):
        array.write(volume, index * 16 * KIB, unique_bytes(16 * KIB, stream))
    array.checkpoint()
    frontier_recovered, frontier_report = crash_and_recover(array)
    full_recovered, full_report = crash_and_recover(frontier_recovered, full_scan=True)
    assert full_report.aus_scanned > frontier_report.aus_scanned
    data, _ = full_recovered.read(volume, 0, 16 * KIB)
    assert len(data) == 16 * KIB


def test_recovery_sequence_numbers_monotonic(array, volume, stream):
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    high_before = array.pipeline.sequence.last_issued
    recovered, _report = crash_and_recover(array)
    assert recovered.pipeline.sequence.last_issued >= high_before


def test_recovery_medium_ids_do_not_collide(array, volume, stream):
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    recovered, _ = crash_and_recover(array)
    new_medium = recovered.create_volume("post", MIB)
    existing = set(recovered.medium_table.all_medium_ids())
    assert new_medium in existing
    # The new anchor must not shadow any pre-crash medium's data.
    recovered.write("post", 0, unique_bytes(4 * KIB, stream))
    original, _ = recovered.read(volume, 0, 4 * KIB)
    assert original != b"\x00" * (4 * KIB)


@pytest.mark.parametrize("crash_after", [3, 9, 17, 26])
def test_crash_at_arbitrary_points(config, stream, crash_after):
    """Randomized ops with a crash mid-stream: acked state survives."""
    array = PurityArray.create(config)
    array.create_volume("v", 2 * MIB)
    expected = {}
    operations = 0
    for index in range(30):
        offset = (index * 24 * KIB) % (2 * MIB - 32 * KIB)
        if index % 7 == 3:
            array.snapshot("v", "snap%d" % index)
        elif index % 11 == 5:
            array.drain()
        else:
            payload = unique_bytes(8 * KIB, stream)
            array.write("v", offset, payload)
            expected[offset] = payload
        operations += 1
        if operations == crash_after:
            break
    recovered, _report = crash_and_recover(array)
    for offset, payload in expected.items():
        data, _ = recovered.read("v", offset, 8 * KIB)
        assert data == payload, "offset %d after crash at op %d" % (
            offset,
            crash_after,
        )
