"""Tests for inline dedup: verify + anchor extension.

The fixtures emulate a stored cblock via an in-memory "store" the
fetch_cblock callback reads from, so the deduper's behaviour is
exercised without the full array. ``test_inline_differential.py`` holds
the live matcher to the reference matcher on a seeded corpus.
"""

import pytest

from repro.dedup.hashing import sector_hash_vector, sector_hashes
from repro.dedup.index import DedupIndex, DedupLocation
from repro.dedup.inline import InlineDeduper
from repro.units import SECTOR


def make_store():
    """A fake physical store: segment_id -> logical bytes of one cblock."""
    return {}


def store_cblock(store, index, segment_id, data, sample_every=8,
                 with_hashes=False):
    """Record a cblock the way the datapath would: every Nth hash, each
    entry carrying the cblock's hash vector when ``with_hashes`` (the
    datapath always attaches it; without it the matcher fetches every
    anchor)."""
    store[segment_id] = data
    hashes = sector_hashes(data)
    vector = sector_hash_vector(data) if with_hashes else None
    for sector, value in enumerate(hashes):
        if sector % sample_every == 0:
            index.record(
                value,
                DedupLocation(segment_id, 0, len(data), sector, vector),
            )


def make_deduper(store, index, min_run=8):
    return InlineDeduper(
        index,
        lambda location: store.get(location.segment_id),
        min_run_sectors=min_run,
    )


def sectors(pattern, count):
    """``count`` sectors, each filled with one byte of ``pattern``."""
    out = bytearray()
    for i in range(count):
        out.extend(bytes([pattern[i % len(pattern)]]) * SECTOR)
    return bytes(out)


def unique_sectors(count, salt):
    return b"".join(
        bytes([salt, i % 256]) * (SECTOR // 2) for i in range(count)
    )


def test_exact_duplicate_write_fully_matched():
    store, index = make_store(), DedupIndex()
    original = unique_sectors(16, salt=1)
    store_cblock(store, index, segment_id=1, data=original)
    deduper = make_deduper(store, index)
    matches = deduper.find_matches(original)
    assert len(matches) == 1
    match = matches[0]
    assert match.sector_start == 0
    assert match.sector_count == 16
    assert match.location.segment_id == 1
    assert match.location.sector_index == 0


def test_misaligned_duplicate_found_via_anchor_extension():
    """Runs are found regardless of alignment with the sampling grid."""
    store, index = make_store(), DedupIndex()
    original = unique_sectors(32, salt=2)
    store_cblock(store, index, segment_id=1, data=original)
    deduper = make_deduper(store, index)
    # New write = 3 unique sectors, then sectors 5..29 of the original.
    incoming = unique_sectors(3, salt=9) + original[5 * SECTOR : 29 * SECTOR]
    matches = deduper.find_matches(incoming)
    assert len(matches) == 1
    match = matches[0]
    assert match.sector_start == 3
    assert match.sector_count == 24
    assert match.location.sector_index == 5


def test_short_duplicates_ignored():
    store, index = make_store(), DedupIndex()
    original = unique_sectors(8, salt=3)
    store_cblock(store, index, segment_id=1, data=original, sample_every=1)
    deduper = make_deduper(store, index, min_run=8)
    # Only 4 duplicate sectors: below the 8-sector (4 KiB) threshold.
    incoming = original[: 4 * SECTOR] + unique_sectors(8, salt=7)
    assert deduper.find_matches(incoming) == []


def test_hash_collision_rejected_by_byte_compare():
    store, index = make_store(), DedupIndex()
    original = unique_sectors(16, salt=4)
    store_cblock(store, index, segment_id=1, data=original)
    # Poison the index: claim a bogus location for the incoming hash.
    incoming = unique_sectors(16, salt=5)
    for sector, value in enumerate(sector_hashes(incoming)):
        index.record(value, DedupLocation(1, 0, len(original), sector))
    deduper = make_deduper(store, index)
    assert deduper.find_matches(incoming) == []
    assert deduper.false_hash_hits > 0


def test_unavailable_location_is_not_matched():
    store, index = make_store(), DedupIndex()
    original = unique_sectors(16, salt=6)
    store_cblock(store, index, segment_id=1, data=original)
    del store[1]  # cblock was garbage collected; index is stale
    deduper = make_deduper(store, index)
    assert deduper.find_matches(original) == []


def test_multiple_disjoint_runs():
    store, index = make_store(), DedupIndex()
    chunk_a = unique_sectors(16, salt=10)
    chunk_b = unique_sectors(16, salt=11)
    store_cblock(store, index, 1, chunk_a)
    store_cblock(store, index, 2, chunk_b)
    deduper = make_deduper(store, index)
    incoming = chunk_a + unique_sectors(8, salt=12) + chunk_b
    matches = deduper.find_matches(incoming)
    assert len(matches) == 2
    assert matches[0].location.segment_id == 1
    assert matches[0].sector_count == 16
    assert matches[1].location.segment_id == 2
    assert matches[1].sector_start == 24


def test_matches_never_overlap():
    store, index = make_store(), DedupIndex()
    base = unique_sectors(64, salt=13)
    store_cblock(store, index, 1, base, sample_every=1)
    deduper = make_deduper(store, index)
    matches = deduper.find_matches(base + base[: 32 * SECTOR])
    previous_end = 0
    for match in matches:
        assert match.sector_start >= previous_end
        previous_end = match.sector_start + match.sector_count


def test_min_run_validation():
    with pytest.raises(ValueError):
        InlineDeduper(DedupIndex(), lambda loc: None, min_run_sectors=0)
