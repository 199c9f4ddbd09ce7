"""Garbage collection: space reclamation, sweeps, chain shortening."""

import pytest

from repro.core import tables as T
from repro.dedup.hashing import sector_hash_vector
from repro.units import KIB, MIB, SECTOR

from tests.core.conftest import unique_bytes


def fill_and_overwrite(array, volume, stream, rounds=4, blocks=20):
    """Churn a region so most segments end up mostly dead."""
    for _round in range(rounds):
        for block in range(blocks):
            array.write(volume, block * 16 * KIB, unique_bytes(16 * KIB, stream))
    array.drain()


def test_gc_reclaims_overwritten_space(array, volume, stream):
    fill_and_overwrite(array, volume, stream)
    used_before = array.allocator.used_count()
    report = array.run_gc(max_segments=50)
    assert report.segments_collected > 0
    assert array.allocator.used_count() < used_before


def test_gc_preserves_all_live_data(array, volume, stream):
    expected = {}
    for block in range(20):
        payload = unique_bytes(16 * KIB, stream)
        array.write(volume, block * 16 * KIB, payload)
        expected[block * 16 * KIB] = payload
    # Overwrite half of them, twice, to create garbage.
    for _round in range(2):
        for block in range(0, 20, 2):
            payload = unique_bytes(16 * KIB, stream)
            array.write(volume, block * 16 * KIB, payload)
            expected[block * 16 * KIB] = payload
    array.drain()
    array.run_gc(max_segments=50)
    for offset, payload in expected.items():
        data, _ = array.read(volume, offset, 16 * KIB)
        assert data == payload, "offset %d corrupted by GC" % offset


def test_gc_respects_dedup_references(array, stream):
    """Collecting a segment must not break extents that dedup into it."""
    array.create_volume("a", MIB)
    array.create_volume("b", MIB)
    shared = unique_bytes(16 * KIB, stream)
    array.write("a", 0, shared)
    array.write("b", 0, shared)  # dedup ref into a's cblock
    # Churn volume a so its segment becomes collectible.
    for _round_number in range(6):
        array.write("a", 32 * KIB, unique_bytes(16 * KIB, stream))
    array.drain()
    array.run_gc(max_segments=50)
    data, _ = array.read("b", 0, 16 * KIB)
    assert data == shared


def test_gc_after_volume_destroy_reclaims_space(array, stream):
    array.create_volume("doomed", 2 * MIB)
    for block in range(48):  # spans several segments
        array.write("doomed", block * 16 * KIB, unique_bytes(16 * KIB, stream))
    array.drain()
    used_before = array.allocator.used_count()
    array.destroy_volume("doomed")
    report = array.run_gc(max_segments=100)
    assert report.segments_collected > 0
    assert array.allocator.used_count() < used_before
    assert array.reduction_report().physical_stored_bytes == 0


def test_medium_sweep_drops_unreferenced_lineage(array, stream):
    """Destroying a volume and its snapshots strands base mediums; the
    sweep reclaims them."""
    array.create_volume("doomed", MIB)
    array.write("doomed", 0, unique_bytes(4 * KIB, stream))
    array.snapshot("doomed", "s")
    array.destroy_snapshot("doomed", "s")
    array.destroy_volume("doomed")
    live_before = len(array.medium_table.all_medium_ids())
    assert live_before >= 1  # the base + snapshot mediums linger
    report = array.gc.sweep_mediums()
    assert report.mediums_swept >= 1
    assert len(array.medium_table.all_medium_ids()) < live_before


def test_sweep_keeps_shared_bases(array, volume, stream):
    original = unique_bytes(4 * KIB, stream)
    array.write(volume, 0, original)
    array.snapshot(volume, "s")
    array.clone(volume, "s", "child")
    array.destroy_snapshot(volume, "s")
    array.gc.sweep_mediums()
    # The clone still resolves through the (referenced) base chain.
    data, _ = array.read("child", 0, 4 * KIB)
    assert data == original


def test_chain_shortening_reduces_depth(array, volume, stream):
    from repro.mediums.resolver import chain_depth

    array.write(volume, 0, unique_bytes(4 * KIB, stream))
    name = volume
    for generation in range(6):
        array.snapshot(name, "s")
        array.clone(name, "s", "g%d" % generation)
        name = "g%d" % generation
    anchor = array.volumes.anchor_medium(name)
    deep = chain_depth(array.medium_table, anchor, 0)
    array.gc.shorten_chains()
    shallow = chain_depth(array.medium_table, anchor, 0)
    assert shallow < deep
    assert shallow <= 3


def test_gc_does_not_collect_pinned_segments(array, volume, stream):
    """Segments holding live patch log records stay until re-persisted."""
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.drain()  # patch log records now pin their segment
    pinned = array.pipeline.pinned_segment_ids()
    assert pinned
    report = array.run_gc(max_segments=100)
    # Whatever was collected, the pinned segments' metadata must remain
    # loadable: force a full reload via crash+recover.
    from repro.core.array import PurityArray
    from repro.core.recovery import recover_array

    shelf, boot, clock = array.crash()
    recovered, _ = recover_array(PurityArray, array.config, shelf, boot, clock)
    data, _ = recovered.read(volume, 0, 16 * KIB)
    assert len(data) == 16 * KIB


def test_gc_idempotent_when_nothing_to_do(array, volume, stream):
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.drain()
    first = array.run_gc()
    second = array.run_gc()
    assert second.segments_collected <= first.segments_collected + 1
    data, _ = array.read(volume, 0, 16 * KIB)
    assert len(data) == 16 * KIB


def test_elision_frees_space_at_merge(array, volume, stream):
    """Section 4.10: elided facts are dropped during merges."""
    for block in range(10):
        array.write(volume, block * 16 * KIB, unique_bytes(16 * KIB, stream))
    address_map = array.tables.address_map
    stored_before = address_map.stored_fact_count()
    array.destroy_volume(volume)
    array.tables.address_map.flatten()
    assert address_map.stored_fact_count() < stored_before


def assert_entries_carry_their_cblocks_hashes(datapath):
    index = datapath.dedup_index
    entries = [*index._recent.values(), *index._frequent.values()]
    assert entries
    for location in entries:
        stored = datapath._fetch_cblock(location)
        assert location.cblock_hashes == sector_hash_vector(stored)


def test_relocated_cblock_keeps_its_hashes_for_dedup(array, stream):
    """GC copies a cblock verbatim, so its index entries keep the
    cblock's sector hashes: after the move a duplicate of it still
    matches with one fetch, and an anchor into it that cannot grow into
    a run costs none."""
    array.create_volume("a", MIB)
    array.create_volume("b", MIB)
    kept = unique_bytes(16 * KIB, stream)
    array.write("a", 0, kept)
    for _round_number in range(6):
        array.write("a", 32 * KIB, unique_bytes(16 * KIB, stream))
    # Split by dedup into unique, reference, unique: each unique run's
    # cblock records its own slice of the chunk's hashes.
    array.write("b", 256 * KIB, unique_bytes(4 * KIB, stream) + kept[:8 * KIB]
                + unique_bytes(4 * KIB, stream))
    array.drain()
    datapath = array.datapath
    assert_entries_carry_their_cblocks_hashes(datapath)
    address_map = array.tables.address_map
    anchor_a = array.volumes.anchor_medium("a")
    home = T.extent_location(address_map.get((anchor_a, 0)).value)
    array.run_gc(max_segments=50)
    moved = T.extent_location(address_map.get((anchor_a, 0)).value)
    assert moved[0] != home[0]
    assert_entries_carry_their_cblocks_hashes(datapath)
    deduper = datapath.deduper
    datapath.drop_caches()

    fetched, found = deduper.anchors_fetched, deduper.matches_found
    array.write("b", 0, kept)
    assert deduper.matches_found == found + 1
    assert deduper.anchors_fetched == fetched + 1
    value = address_map.get((array.volumes.anchor_medium("b"), 0)).value
    assert T.extent_location(value) == moved

    fetched, screened = deduper.anchors_fetched, deduper.anchors_screened
    array.write("b", 64 * KIB,
                kept[:SECTOR] + unique_bytes(16 * KIB - SECTOR, stream))
    assert deduper.anchors_fetched == fetched
    assert deduper.anchors_screened == screened + 1
    datapath.drop_caches()
    assert array.read("b", 0, 16 * KIB)[0] == kept


# ----------------------------------------------------------------------
# Evacuation reads: one span read per segio, byte-identical relocations

RECORD = 4 * KIB


def churn_with_model(array, stream):
    """Two volumes, a snapshot, a clone and dedup references spread over
    several segments and segios, overwritten so most of it is dead.

    Returns (per-volume ``bytearray`` model, per-snapshot ``bytes``).
    """
    model, snapshots = {}, {}

    def write(name, index, data):
        array.write(name, index * RECORD, data)
        model[name][index * RECORD : (index + 1) * RECORD] = data

    for name in ("a", "b"):
        array.create_volume(name, MIB)
        model[name] = bytearray(MIB)
    for index in range(96):
        write("a", index, unique_bytes(RECORD, stream))
    for index in range(0, 96, 3):  # b's copies dedup onto a's cblocks
        write("b", index, bytes(model["a"][index * RECORD : (index + 1) * RECORD]))
    for index in range(0, 96, 2):
        write("a", index, unique_bytes(RECORD, stream))
    array.snapshot("a", "s")
    snapshots[("a", "s")] = bytes(model["a"])
    array.clone("a", "s", "c")
    model["c"] = bytearray(snapshots[("a", "s")])
    for _round in range(2):
        for index in range(0, 96, 2):
            write("a", index, unique_bytes(RECORD, stream))
    for index in range(1, 96, 4):
        write("c", index, unique_bytes(RECORD, stream))
    array.drain()
    return model, snapshots


def assert_reads_match_model(array, model, snapshots):
    array.datapath.drop_caches()
    for name, expected in model.items():
        assert array.read(name, 0, len(expected))[0] == expected, name
    for (volume, snapshot), expected in snapshots.items():
        medium = array.volumes._snapshot_fact(volume, snapshot).value[0]
        assert array.datapath.read(medium, 0, len(expected))[0] == expected


def per_cblock_reads(array):
    """What a read_payload of each live cblock on its own returns."""
    return {
        (segment_id, offset, length): array.segreader.read_payload(
            array.datapath.descriptor_for(segment_id), offset, length
        )[0]
        for segment_id, cblocks in array.datapath.live_cblocks_by_segment().items()
        for offset, length in cblocks
    }


def record_relocations(array, monkeypatch):
    """[(old cblock key, new cblock key, blob appended)], in append order."""
    moves = []
    appended = []
    append_data = array.segwriter.append_data
    rewrite = array.gc._rewrite_live_cblocks

    def recording_append(blob):
        appended.append(bytes(blob))
        return append_data(blob)

    def recording_rewrite(descriptor, referencing, report):
        del appended[:]
        relocations = rewrite(descriptor, referencing, report)
        assert len(appended) == len(relocations)
        for ((offset, length), target), blob in zip(relocations.items(), appended):
            moves.append(((descriptor.segment_id, offset, length),
                          (*target, length), blob))
        return relocations

    monkeypatch.setattr(array.segwriter, "append_data", recording_append)
    monkeypatch.setattr(array.gc, "_rewrite_live_cblocks", recording_rewrite)
    return moves


def test_collect_reads_each_live_segio_once(array, stream, monkeypatch):
    churn_with_model(array, stream)
    per_segio = array.config.segment_geometry.payload_per_segio
    by_segment = array.datapath.live_cblocks_by_segment()
    victim = max(
        (segment_id for segment_id in by_segment
         if not array.gc._is_pinned(array.datapath.descriptor_for(segment_id))),
        key=lambda segment_id: len(by_segment[segment_id]),
    )
    spans = {}
    for offset, length in by_segment[victim]:
        first, last = spans.get(offset // per_segio, (offset, offset + length))
        spans[offset // per_segio] = (min(first, offset), max(last, offset + length))
    assert len(spans) >= 2
    assert len(by_segment[victim]) > len(spans)
    calls = []
    read_payload = array.segreader.read_payload

    def counting_read(descriptor, payload_offset, length):
        if descriptor.segment_id == victim:
            calls.append((payload_offset, length))
        return read_payload(descriptor, payload_offset, length)

    monkeypatch.setattr(array.segreader, "read_payload", counting_read)
    assert array.gc.collect_segment(victim)
    assert sorted(calls) == sorted(
        (first, last - first) for first, last in spans.values()
    )


def check_relocations(moves, before):
    """Each appended blob is the cblock's bytes as read before GC (a
    cblock GC already moved once may move again from its new home)."""
    assert moves
    expected = dict(before)
    for old, new, blob in moves:
        assert blob == expected[old], "cblock %r rewritten with other bytes" % (old,)
        expected[new] = blob


@pytest.mark.parametrize("evacuation, failed", [
    ("gc", 0), ("gc", 1), ("gc", 2), ("rebuild", 1), ("rebuild", 2),
])
def test_evacuation_relocates_what_a_per_cblock_read_returns(
    array, stream, monkeypatch, evacuation, failed
):
    model, snapshots = churn_with_model(array, stream)
    placements = next(iter(array.tables.segments.scan())).value[0]
    for drive_name, _au in placements[:failed]:
        array.fail_drive(drive_name)
    before = per_cblock_reads(array)
    moves = record_relocations(array, monkeypatch)
    if evacuation == "gc":
        report = array.run_gc(max_segments=50)
        assert report.segments_collected > 0
        assert len(moves) == report.cblocks_rewritten
    else:
        assert array.rebuild() > 0
    check_relocations(moves, before)
    assert_reads_match_model(array, model, snapshots)
