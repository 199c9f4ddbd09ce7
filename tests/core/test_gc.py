"""Garbage collection: space reclamation, sweeps, chain shortening."""

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
    home = address_map.get((array.volumes.anchor_medium("a"), 0)).value[1]
    array.run_gc(max_segments=50)
    moved = address_map.get((array.volumes.anchor_medium("a"), 0)).value[1]
    assert moved != home
    assert_entries_carry_their_cblocks_hashes(datapath)
    deduper = datapath.deduper
    datapath.drop_caches()

    fetched, found = deduper.anchors_fetched, deduper.matches_found
    array.write("b", 0, kept)
    assert deduper.matches_found == found + 1
    assert deduper.anchors_fetched == fetched + 1
    value = address_map.get((array.volumes.anchor_medium("b"), 0)).value
    assert value[:2] == (T.EXTENT_DEDUP, moved)

    fetched, screened = deduper.anchors_fetched, deduper.anchors_screened
    array.write("b", 64 * KIB,
                kept[:SECTOR] + unique_bytes(16 * KIB - SECTOR, stream))
    assert deduper.anchors_fetched == fetched
    assert deduper.anchors_screened == screened + 1
    datapath.drop_caches()
    assert array.read("b", 0, 16 * KIB)[0] == kept
