"""Tests for the two-tier dedup index."""

import pytest

from repro.dedup.index import DedupIndex, DedupLocation


def loc(segment_id=1, sector=0):
    return DedupLocation(
        segment_id=segment_id, payload_offset=0, stored_length=64, sector_index=sector
    )


def test_record_and_lookup():
    index = DedupIndex()
    index.record(0xABCD, loc())
    assert index.lookup(0xABCD) == loc()
    assert index.lookup(0x1234) is None
    assert index.hits == 1
    assert index.lookups == 2


def test_recent_tier_evicts_oldest():
    index = DedupIndex(recent_capacity=3)
    for value in range(5):
        index.record(value, loc(sector=value))
    assert index.lookup(0) is None
    assert index.lookup(1) is None
    assert index.lookup(4) is not None
    assert len(index) == 3


def test_hot_hash_promoted_to_frequent():
    index = DedupIndex(recent_capacity=2, promote_hits=2)
    index.record(0xAA, loc(sector=1))
    index.lookup(0xAA)
    index.lookup(0xAA)  # second hit promotes
    # Flood the recent tier; the promoted hash must survive.
    for value in range(10):
        index.record(value, loc(sector=value))
    assert index.lookup(0xAA) == loc(sector=1)


def test_eviction_drops_the_hit_count_with_the_entry():
    index = DedupIndex(recent_capacity=2, promote_hits=2)
    index.record(0xAA, loc(sector=1))
    index.lookup(0xAA)  # one hit short of promotion
    index.record(0xBB, loc(sector=2))
    index.record(0xCC, loc(sector=3))  # evicts 0xAA
    assert index.lookup(0xAA) is None
    assert 0xAA not in index._hit_counts
    # Recorded again, it needs promote_hits *fresh* hits: one hit must
    # leave it in the recent tier, where a flood still evicts it.
    index.record(0xAA, loc(sector=4))
    index.lookup(0xAA)
    assert 0xAA not in index._frequent
    for value in range(2):
        index.record(value, loc(sector=value))
    assert index.lookup(0xAA) is None
    assert len(index._hit_counts) <= index.recent_capacity


def test_rewrite_segment_relocates():
    index = DedupIndex()
    index.record(1, loc(segment_id=7, sector=3))
    index.record(2, loc(segment_id=7, sector=9))
    index.record(3, loc(segment_id=8))

    def relocate(location):
        if location.sector_index == 9:
            return None  # that cblock was dropped
        return DedupLocation(20, 512, 64, location.sector_index)

    index.rewrite_segment(7, relocate)
    assert index.lookup(1) == DedupLocation(20, 512, 64, 3)
    assert index.lookup(2) is None
    assert index.lookup(3) == loc(segment_id=8)  # another segment: untouched


def test_shifted_location():
    location = loc(sector=5)
    assert location.shifted(3).sector_index == 8
    assert location.shifted(-2).sector_index == 3
    assert location.shifted(0) == location


def test_cblock_hashes_ride_along_but_are_not_identity():
    vector = bytes(range(8)) * 4
    location = DedupLocation(1, 0, 64, 2, vector)
    assert location.shifted(1).cblock_hashes is vector
    assert location == loc(sector=2)
    assert hash(location) == hash(loc(sector=2))
    assert repr(location) == repr(loc(sector=2))


def test_hit_rate():
    index = DedupIndex()
    assert index.hit_rate == 0.0
    index.record(1, loc())
    index.lookup(1)
    index.lookup(2)
    assert index.hit_rate == pytest.approx(0.5)
