"""Background scrubbing and wear-driven refresh (Section 5.1)."""

import pytest

from repro.units import KIB

from tests.core.conftest import unique_bytes


def test_clean_array_scrubs_without_rewrites(array, volume, stream):
    for block in range(6):
        array.write(volume, block * 16 * KIB, unique_bytes(16 * KIB, stream))
    array.drain()
    report = array.scrub()
    assert report.segments_scanned > 0
    assert report.corrupt_shards == 0
    assert report.parity_mismatches == 0
    assert report.segments_rewritten == 0


def test_scrub_flags_a_silently_corrupted_shard(array, volume, stream):
    """A parity shard whose bytes changed with no media error reads back
    clean, so only the stripe's parity check can catch it: one mismatch,
    and the segment is marked for rewrite."""
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.drain()
    geometry = array.config.segment_geometry
    segment_id = next(fact.key[0] for fact in array.tables.segments.scan())
    placements = array.datapath.descriptor_for(segment_id).placements
    drive_name, au_index = placements[geometry.data_shards]
    offset = geometry.device_offset(
        au_index * geometry.au_size, 0, geometry.wu_header_size
    )
    store = array.drives[drive_name].store
    store.write(offset, bytes(b ^ 0xFF for b in store.read(offset, 64)))
    from repro.core.scrubber import ScrubReport

    report = ScrubReport()
    assert array.scrubber._scrub_segment(segment_id, geometry, report)
    assert report.corrupt_shards == 0
    assert report.parity_mismatches == 1


def test_scrub_detects_and_repairs_worn_flash(array, volume, stream):
    """Worn blocks past rating + long retention lose pages; scrubbing
    rewrites them before the application ever sees an error."""
    payload = unique_bytes(16 * KIB, stream)
    array.write(volume, 0, payload)
    array.drain()
    # Wear every erase block to 1.2x its rating (20% page loss after a
    # full retention period), then age the data by that period.
    for drive in array.drives.values():
        for erase_block in range(drive.geometry.num_erase_blocks):
            drive.wear._pe_counts[erase_block] = int(
                drive.wear.rated_pe_cycles * 1.2
            )
    array.clock.advance(array.drives[list(array.drives)[0]].wear.RATED_RETENTION_SECONDS)
    report = array.scrub()
    assert report.corrupt_shards > 0 or report.segments_rewritten > 0
    data, _ = array.read(volume, 0, 16 * KIB)
    assert data == payload


def test_scrub_rewrite_refreshes_retention(array, volume, stream):
    payload = unique_bytes(16 * KIB, stream)
    array.write(volume, 0, payload)
    array.drain()
    # Mark wear above the refresh threshold but below failure.
    for drive in array.drives.values():
        for erase_block in range(drive.geometry.num_erase_blocks):
            drive.wear._pe_counts[erase_block] = int(
                drive.wear.rated_pe_cycles * 0.95
            )
    report = array.scrub()
    assert report.segments_rewritten > 0
    data, _ = array.read(volume, 0, 16 * KIB)
    assert data == payload


def test_scrub_with_failed_drive_rebuilds(array, volume, stream):
    payload = unique_bytes(16 * KIB, stream)
    array.write(volume, 0, payload)
    array.drain()
    array.fail_drive(list(array.drives)[0])
    report = array.scrub()
    assert report.segments_rewritten > 0
    data, _ = array.read(volume, 0, 16 * KIB)
    assert data == payload


def test_scrub_respects_max_segments(array, volume, stream):
    for block in range(20):
        array.write(volume, block * 16 * KIB, unique_bytes(16 * KIB, stream))
    array.drain()
    report = array.scrub(max_segments=1)
    assert report.segments_scanned <= 1


def test_scrub_skips_segments_freed_mid_pass(array, volume, stream):
    """GC can free a segment between the table scan and the shard
    reads; the scrubber counts the race and moves on."""
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.drain()
    geometry = array.config.segment_geometry
    from repro.core.scrubber import ScrubReport

    report = ScrubReport()
    needs_rewrite = array.scrubber._scrub_segment(999999, geometry, report)
    assert not needs_rewrite
    assert report.segments_skipped == 1
    assert report.segments_scanned == 0


def test_scrub_propagates_unexpected_errors(array, volume, stream):
    """Only the missing-descriptor race is skippable; anything else in
    a scrub is a real bug and must not be swallowed."""
    array.write(volume, 0, unique_bytes(16 * KIB, stream))
    array.drain()

    def explode(_segment_id):
        raise RuntimeError("boom")

    array.datapath.descriptor_for = explode
    with pytest.raises(RuntimeError):
        array.scrub()
