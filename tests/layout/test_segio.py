"""Tests for open segios (Figure 3 fill discipline)."""

import random
from dataclasses import replace

import pytest

from repro.erasure.reed_solomon import ReedSolomon
from repro.layout.segio import OpenSegio
from repro.layout.segment import SegioHeader, SegmentDescriptor, SegmentGeometry
from repro.units import KIB


@pytest.fixture
def geometry():
    return SegmentGeometry(
        au_size=64 * KIB, write_unit=16 * KIB, wu_header_size=1 * KIB
    )


@pytest.fixture
def descriptor():
    return SegmentDescriptor(5, tuple(("ssd%02d" % i, 1) for i in range(9)))


@pytest.fixture
def segio(geometry, descriptor):
    return OpenSegio(geometry, descriptor, segio_index=2)


def test_data_fills_from_front(segio, geometry):
    base = 2 * geometry.payload_per_segio
    assert segio.append_data(b"a" * 100) == base
    assert segio.append_data(b"b" * 50) == base + 100
    assert segio.data_bytes == 150


def test_log_records_fill_from_back(segio, geometry):
    locator = segio.append_log_record(b"x" * 64)
    expected_offset = 2 * geometry.payload_per_segio + geometry.payload_per_segio - 64
    assert locator == (expected_offset, 64)
    second = segio.append_log_record(b"y" * 32)
    assert second[0] == expected_offset - 32
    assert segio.log_bytes == 96


def test_regions_meet_in_the_middle(segio, geometry):
    capacity = geometry.payload_per_segio
    assert segio.append_data(b"d" * (capacity - 100)) is not None
    assert segio.append_log_record(b"l" * 100) is not None
    assert segio.free_bytes == 0
    assert segio.append_data(b"!") is None
    assert segio.append_log_record(b"!") is None


def test_log_record_cap_enforced(geometry, descriptor):
    segio = OpenSegio(geometry, descriptor, 0)
    accepted = 0
    while segio.append_log_record(b"r" * 8) is not None:
        accepted += 1
    assert accepted == segio._max_log_records
    assert segio.free_bytes > 0  # refused by cap, not by space


def test_seq_and_record_tracking(segio):
    segio.append_log_record(b"a", seq_min=10, seq_max=20, record_id=3)
    segio.append_log_record(b"b", seq_min=5, seq_max=15, record_id=7)
    units = segio.finalize(ReedSolomon(7, 2))
    header = SegioHeader.decode(units[0])
    assert header.seq_min == 5
    assert header.seq_max == 20
    assert header.max_record_id == 7


def test_finalize_produces_striped_write_units(segio, geometry):
    payload = bytes(range(256)) * 8
    offset = segio.append_data(payload)
    segio.append_log_record(b"log-entry", seq_min=1, seq_max=1, record_id=0)
    codec = ReedSolomon(7, 2)
    units = segio.finalize(codec)
    assert len(units) == 9
    assert all(len(unit) == geometry.write_unit for unit in units)
    # Headers are replicated on every shard and identify their index.
    headers = [SegioHeader.decode(unit) for unit in units]
    assert [h.shard_index for h in headers] == list(range(9))
    assert all(h.segment_id == 5 and h.segio_index == 2 for h in headers)
    assert headers[0].data_length == len(payload)
    assert len(headers[0].log_locators) == 1
    # The parity over shard bodies verifies.
    bodies = [unit[geometry.wu_header_size :] for unit in units]
    assert codec.verify(bodies)
    # The data lands at the right place in shard bodies.
    within = offset - segio.payload_base()
    assert bodies[0][within : within + 16] == payload[:16]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replicated_headers_match_a_per_shard_encode(geometry, descriptor, seed):
    """finalize encodes the shared header fields once per segio; every
    write unit must still carry exactly the bytes a per-shard encode
    gives."""
    rng = random.Random(seed)
    segio_index = rng.randrange(4)
    segio = OpenSegio(geometry, descriptor, segio_index=segio_index)
    data_length = rng.randrange(1, 4 * KIB)
    segio.append_data(rng.randbytes(data_length))
    locators, seqs, record_ids = [], [], []
    for _record in range(rng.randrange(1, 12)):
        seq = rng.randrange(1 << 40)
        seqs += [seq, seq + rng.randrange(1000)]
        record_ids.append(rng.randrange(1 << 20))
        locators.append(segio.append_log_record(
            rng.randbytes(rng.randrange(1, 256)),
            seq_min=seqs[-2],
            seq_max=seqs[-1],
            record_id=record_ids[-1],
        ))
    header = SegioHeader(
        segment_id=descriptor.segment_id,
        segio_index=segio_index,
        shard_index=0,
        placements=descriptor.placements,
        data_length=data_length,
        log_locators=tuple(locators),
        seq_min=min(seqs),
        seq_max=max(seqs),
        max_record_id=max(record_ids),
    )
    units = segio.finalize(ReedSolomon(7, 2))
    assert len(units) == 9
    for shard_index, unit in enumerate(units):
        expected = replace(header, shard_index=shard_index).encode(
            geometry.wu_header_size
        )
        assert unit[: geometry.wu_header_size] == expected
    # Past shard 63 the index needs a two-byte varint.
    assert header.encode_replicas(geometry.wu_header_size, 70) == [
        replace(header, shard_index=index).encode(geometry.wu_header_size)
        for index in range(70)
    ]


def test_finalize_twice_rejected(segio):
    segio.finalize(ReedSolomon(7, 2))
    with pytest.raises(RuntimeError):
        segio.append_data(b"late")
    with pytest.raises(RuntimeError):
        segio.finalize(ReedSolomon(7, 2))


def test_is_empty(segio):
    assert segio.is_empty
    segio.append_data(b"x")
    assert not segio.is_empty
