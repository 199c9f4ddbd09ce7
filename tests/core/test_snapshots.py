"""Snapshot and clone semantics over the medium layer."""

import pytest

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.recovery import recover_array
from repro.errors import SnapshotError, VolumeExistsError, VolumeNotFoundError
from repro.mediums.resolver import chain_depth
from repro.units import KIB, MIB

from tests.conftest import make_engine
from tests.core.conftest import unique_bytes


def test_snapshot_preserves_point_in_time(array, volume, stream):
    original = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, original)
    array.snapshot(volume, "before")
    overwrite = unique_bytes(8 * KIB, stream)
    array.write(volume, 0, overwrite)
    live, _ = array.read(volume, 0, 8 * KIB)
    assert live == overwrite
    # The snapshot still serves the original via a clone.
    array.clone(volume, "before", "restored")
    snap_data, _ = array.read("restored", 0, 8 * KIB)
    assert snap_data == original


def test_clone_diverges_from_snapshot(array, volume, stream):
    base = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, base)
    array.snapshot(volume, "s")
    array.clone(volume, "s", "dev")
    divergent = unique_bytes(4 * KIB, stream)
    array.write("dev", 0, divergent)
    original, _ = array.read(volume, 0, 4 * KIB)
    cloned, _ = array.read("dev", 0, 4 * KIB)
    assert original == base
    assert cloned == divergent


def test_clone_inherits_unwritten_ranges(array, volume, stream):
    payload = unique_bytes(4 * KIB, stream)
    array.write(volume, 16 * KIB, payload)
    array.snapshot(volume, "s")
    array.clone(volume, "s", "copy")
    data, _ = array.read("copy", 16 * KIB, 4 * KIB)
    assert data == payload
    zeros, _ = array.read("copy", 0, 4 * KIB)
    assert zeros == b"\x00" * (4 * KIB)


def test_writes_after_snapshot_do_not_leak_into_clone(array, volume, stream):
    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    array.snapshot(volume, "s")
    late = unique_bytes(4 * KIB, stream)
    array.write(volume, 4 * KIB, late)
    array.clone(volume, "s", "copy")
    data, _ = array.read("copy", 4 * KIB, 4 * KIB)
    assert data == b"\x00" * (4 * KIB)


def test_snapshot_chain(array, volume, stream):
    versions = []
    for generation in range(4):
        payload = unique_bytes(4 * KIB, stream)
        array.write(volume, 0, payload)
        array.snapshot(volume, "gen%d" % generation)
        versions.append(payload)
    for generation, payload in enumerate(versions):
        clone_name = "restore%d" % generation
        array.clone(volume, "gen%d" % generation, clone_name)
        data, _ = array.read(clone_name, 0, 4 * KIB)
        assert data == payload


def test_clone_volume_shortcut(array, volume, stream):
    payload = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, payload)
    array.clone_volume(volume, "copy")
    data, _ = array.read("copy", 0, 4 * KIB)
    assert data == payload


def test_duplicate_snapshot_name_rejected(array, volume):
    array.snapshot(volume, "s")
    with pytest.raises(SnapshotError):
        array.snapshot(volume, "s")


def test_clone_to_existing_volume_rejected(array, volume):
    array.snapshot(volume, "s")
    array.create_volume("taken", MIB)
    with pytest.raises(VolumeExistsError):
        array.clone(volume, "s", "taken")


def test_clone_of_missing_snapshot_rejected(array, volume):
    with pytest.raises(SnapshotError):
        array.clone(volume, "ghost", "x")


def test_destroy_snapshot_keeps_volume_data(array, volume, stream):
    payload = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, payload)
    array.snapshot(volume, "s")
    array.destroy_snapshot(volume, "s")
    data, _ = array.read(volume, 0, 4 * KIB)
    assert data == payload
    assert array.volumes.snapshot_names(volume) == []


def test_snapshots_are_instant_no_data_movement(array, volume, stream):
    """Snapshot cost is medium-table bookkeeping, not copying."""
    array.write(volume, 0, unique_bytes(64 * KIB, stream))
    data_bytes_before = array.segwriter.data_bytes_written
    for index in range(10):
        array.snapshot(volume, "snap%d" % index)
    assert array.segwriter.data_bytes_written == data_bytes_before


def test_snapshot_names_listed(array, volume):
    array.snapshot(volume, "b")
    array.snapshot(volume, "a")
    assert array.volumes.snapshot_names(volume) == ["a", "b"]


def test_deep_clone_chain_remains_correct(array, volume, stream):
    payload = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, payload)
    source = volume
    for depth in range(5):
        array.snapshot(source, "s")
        array.clone(source, "s", "gen%d" % depth)
        source = "gen%d" % depth
    data, _ = array.read(source, 0, 4 * KIB)
    assert data == payload
    # GC's chain shortening keeps read fan-out bounded.
    array.run_gc()
    anchor = array.volumes.anchor_medium(source)
    assert chain_depth(array.medium_table, anchor, 0) <= 3
    data, _ = array.read(source, 0, 4 * KIB)
    assert data == payload


# ----------------------------------------------------------------------
# Reads resolve their volume and medium chain from memory


def count_index_reads(monkeypatch, array):
    """[(relation, what)] of every index read the catalog relations and
    the address map serve from here on."""
    reads = []
    for relation in (array.tables.volumes, array.tables.snapshots,
                     array.tables.mediums, array.tables.address_map):
        for name in ("lookup_latest", "scan_latest"):
            original = getattr(relation.pyramid, name)

            def counting(*args, _original=original, _what=(relation.name, name),
                         **kwargs):
                reads.append(_what)
                return _original(*args, **kwargs)

            monkeypatch.setattr(relation.pyramid, name, counting)
    return reads


def unsanitized_array(monkeypatch):
    """An array whose relations skip the sanitizer's cross-check, which
    scans the index on every view lookup on purpose."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    return make_engine(ArrayConfig.small())


def test_reads_resolve_the_chain_from_memory(stream, monkeypatch):
    """Once a clone has been read, reading it again reads no catalog row
    and no medium's extents from the index, its writable top's included:
    each medium's live view answers. A write or a catalog change is seen
    by the very next read."""
    array = unsanitized_array(monkeypatch)
    volume = "vol0"
    array.create_volume(volume, 2 * MIB)
    base = unique_bytes(16 * KIB, stream)
    array.write(volume, 0, base)
    array.snapshot(volume, "s")
    array.clone(volume, "s", "c")
    assert array.read("c", 0, 16 * KIB)[0] == base
    reads = count_index_reads(monkeypatch, array)
    for _ in range(3):
        assert array.read("c", 0, 16 * KIB)[0] == base
    assert reads == []

    top = unique_bytes(4 * KIB, stream)
    array.write("c", 0, top)
    assert array.read("c", 0, 16 * KIB)[0] == top + base[4 * KIB:]
    assert ("address_map", "scan_latest") not in reads
    array.destroy_volume("c")
    with pytest.raises(VolumeNotFoundError):
        array.read("c", 0, 4 * KIB)
    array.clone(volume, "s", "c")  # the same name, a fresh medium
    assert array.read("c", 0, 16 * KIB)[0] == base


def test_a_write_finds_its_at_risk_extents_in_the_view(stream, monkeypatch):
    """Once a medium has a view, a write's at-risk extents, and the
    remainder it keeps of the one it replaces, come from the view: no
    address-map scan at all."""
    array = unsanitized_array(monkeypatch)
    array.create_volume("v", 256 * KIB)
    base = unique_bytes(32 * KIB, stream)
    array.write("v", 0, base)
    medium = array.volumes.anchor_medium("v")
    array.tables.address_map.view(medium)
    reads = count_index_reads(monkeypatch, array)
    at_risk = array.datapath._at_risk_extents(medium, 0, 4 * KIB)
    assert list(at_risk) == [0]  # the 32 KiB extent runs past the write
    top = unique_bytes(4 * KIB, stream)
    array.write("v", 0, top)
    assert ("address_map", "scan_latest") not in reads
    assert array.datapath.tails_repointed == 1
    assert array.read("v", 0, 32 * KIB)[0] == top + base[4 * KIB:]
    assert ("address_map", "scan_latest") not in reads


def test_seeded_churn_reads_match_a_model_through_gc_and_recovery(stream):
    """Snapshots, clones, destroys, name reuse, GC (which repoints frozen
    mediums' extents and retargets medium rows) and a crash, each
    followed by reads checked against a per-volume ``bytearray`` model:
    a memo that outlived its relation's change returns stale bytes."""
    array = make_engine(ArrayConfig.small(seed=5))
    record, size = 4 * KIB, 256 * KIB
    model, snapshots, clones = {}, {}, []

    def write(name):
        offset = stream.randint(0, size // record - 1) * record
        data = unique_bytes(record, stream)
        array.write(name, offset, data)
        model[name][offset:offset + record] = data

    def check_reads(count):
        for _ in range(count):
            name = stream.choice(sorted(model))
            offset = stream.randint(0, size // record - 2) * record
            assert array.read(name, offset, 2 * record)[0] == \
                model[name][offset:offset + 2 * record], name

    for name in ("a", "b"):
        array.create_volume(name, size)
        model[name] = bytearray(size)
        for _ in range(24):
            write(name)
    for rnd in range(6):
        for name in ("a", "b"):
            array.snapshot(name, "s%d" % rnd)
            snapshots[name, "s%d" % rnd] = bytes(model[name])
        clone = "c%d" % rnd
        array.clone("a", "s%d" % rnd, clone)
        model[clone] = bytearray(snapshots["a", "s%d" % rnd])
        clones.append(clone)
        check_reads(24)
        for _ in range(24):
            write(stream.choice(sorted(model)))
        check_reads(24)
        if len(clones) > 2:
            gone = clones.pop(0)
            array.destroy_volume(gone)
            del model[gone]
        for name in ("a", "b"):
            if (name, "s%d" % (rnd - 2)) in snapshots:
                array.destroy_snapshot(name, "s%d" % (rnd - 2))
                del snapshots[name, "s%d" % (rnd - 2)]
        if rnd in (2, 4):
            report = array.run_gc(max_segments=50)
            assert report.segments_collected and report.chains_shortened
        if rnd == 3:
            shelf, boot_region, clock = array.crash()
            array, _report = recover_array(
                PurityArray, array.config, shelf, boot_region, clock
            )
        check_reads(24)
    for name, expected in model.items():
        assert array.read(name, 0, size)[0] == expected, name


def test_a_frozen_medium_repointed_by_gc_is_read_at_its_new_home(array, volume,
                                                                 stream):
    """Evacuating a segment moves a snapshot's live cblocks and repoints
    the frozen medium's extents; the next read must follow them, not a
    memo of the old ones. (Scrub and rebuild collect segments one at a
    time like this, with no pyramid merge after.)"""
    records = [unique_bytes(4 * KIB, stream) for _ in range(32)]
    for index, data in enumerate(records):
        array.write(volume, index * 4 * KIB, data)
    for index in range(0, 32, 2):  # half the segment's cblocks die
        records[index] = unique_bytes(4 * KIB, stream)
        array.write(volume, index * 4 * KIB, records[index])
    array.snapshot(volume, "s")
    array.clone(volume, "s", "c")
    expected = b"".join(records)
    assert array.read("c", 0, len(expected))[0] == expected
    collected = [segment_id
                 for segment_id in sorted(array.datapath.live_cblocks_by_segment())
                 if array.gc.collect_segment(segment_id)]
    assert collected
    assert not set(collected) & set(array.datapath.live_cblocks_by_segment())
    array.datapath.drop_caches()
    assert array.read("c", 0, len(expected))[0] == expected
