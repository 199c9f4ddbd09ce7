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


def _two_volume_tape(array, stream, writes=40):
    """``writes`` 8 KiB writes over two volumes, one drain midway."""
    model = {}
    for name in ("a", "b"):
        array.create_volume(name, 2 * MIB)
        model[name] = bytearray(2 * MIB)
    for index in range(writes):
        name = ("a", "b")[index % 2]
        offset = (index * 24 * KIB) % (2 * MIB - 32 * KIB)
        payload = unique_bytes(8 * KIB, stream)
        array.write(name, offset, payload)
        model[name][offset:offset + 8 * KIB] = payload
        if index == writes // 2:
            array.drain()
    return model


def _assert_model(array, model):
    array.datapath.drop_caches()
    for name, expected in sorted(model.items()):
        data, _ = array.read(name, 0, len(expected))
        assert data == expected, name


def test_checkpoint_before_the_first_drain_keeps_every_volume(array, stream):
    """Defect (iv): a frontier checkpoint taken by a recovered controller
    before its first drain must point at what recovery loaded."""
    model = _two_volume_tape(array, stream)
    recovered, _report = crash_and_recover(array)
    recovered.pipeline.checkpoint()  # what a dry frontier triggers
    second, _report = crash_and_recover(recovered)
    _assert_model(second, model)


def test_first_drain_after_recovery_writes_nothing(array, stream):
    """With NVRAM empty, every recovered fact is already on flash."""
    model = _two_volume_tape(array, stream)
    array.drain()
    recovered, report = crash_and_recover(array)
    assert report.log_records_read > 0
    assert not any(len(relation.pyramid.memtable)
                   for relation in recovered.tables)
    programmed = sum(d.counters.bytes_written for d in recovered.shelf.drives)
    recovered.drain()
    assert recovered.segwriter.log_bytes_written == 0
    assert sum(d.counters.bytes_written
               for d in recovered.shelf.drives) == programmed
    _assert_model(recovered, model)


def test_recovery_reads_each_log_record_once(array, stream, monkeypatch):
    """A record a boot pointer names is not read again by the scan,
    though it sits in the open segment the scan visits."""
    from repro.layout.segreader import SegmentReader

    model = _two_volume_tape(array, stream)
    array.checkpoint()
    for index in range(6):
        payload = unique_bytes(8 * KIB, stream)
        array.write("a", index * 8 * KIB, payload)
        model["a"][index * 8 * KIB:(index + 1) * 8 * KIB] = payload
    array.drain()
    reads = []
    original = SegmentReader.read_log_record

    def counted(self, descriptor, locator):
        reads.append((tuple(descriptor.placements), tuple(locator)))
        return original(self, descriptor, locator)

    monkeypatch.setattr(SegmentReader, "read_log_record", counted)
    recovered, report = crash_and_recover(array)
    assert report.patches_loaded > 0
    assert len(reads) == len(set(reads)) == report.log_records_read
    _assert_model(recovered, model)


@pytest.mark.parametrize("drain_first", [False, True])
def test_gc_after_recovery_keeps_every_byte(array, stream, drain_first):
    """Adopted patches pin their segments, or GC re-homes them first."""
    model = _two_volume_tape(array, stream)
    if drain_first:
        array.drain()
    recovered, _report = crash_and_recover(array)
    for index in range(12):
        payload = unique_bytes(8 * KIB, stream)
        recovered.write("b", index * 8 * KIB, payload)
        model["b"][index * 8 * KIB:(index + 1) * 8 * KIB] = payload
    recovered.run_gc(max_segments=8)
    second, _report = crash_and_recover(recovered)
    _assert_model(second, model)


def test_checkpoint_before_a_drain_keeps_every_segment_row():
    """A segment's row commits to NVRAM when the segment opens, so a
    checkpoint that moves its AUs out of the frontier scan set, then a
    crash, cannot drop it — and GC still frees what the row owns."""
    from repro.core.config import ArrayConfig
    from repro.sim.rand import RandomStream

    array = PurityArray.create(ArrayConfig.small(seed=3))
    array.create_volume("v", 2 * MIB)
    stream = RandomStream(3)
    model = bytearray(2 * MIB)
    for index in range(60):
        offset = stream.randint(0, (2 * MIB - 16 * KIB) // 512) * 512
        payload = stream.randbytes(16 * KIB)
        array.write("v", offset, payload)
        model[offset:offset + 16 * KIB] = payload
        if index == 29:
            array.drain()
    recovered, _report = crash_and_recover(array)
    rows = {fact.key for fact in recovered.tables.segments.scan()}
    recovered.pipeline.checkpoint()
    second, _report = crash_and_recover(recovered)
    assert rows <= {fact.key for fact in second.tables.segments.scan()}
    for _ in range(3):
        second.run_gc()
    owned = {tuple(unit) for fact in second.tables.segments.scan()
             for unit in fact.value[0]}
    assert {tuple(unit) for unit in second.allocator.used_units()} == owned
    _assert_model(second, {"v": model})
