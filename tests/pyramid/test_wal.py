"""Tests for the monotonic WAL and commit-record codec."""

import hashlib

import pytest

from repro.pyramid import tuples as tuples_module
from repro.pyramid import wal as wal_module
from repro.pyramid.tuples import Fact
from repro.pyramid.wal import (
    MonotonicWAL,
    decode_commit_record,
    encode_commit_record,
)
from repro.sim.clock import SimClock
from repro.ssd.nvram import NVRAMDevice
from repro.units import MIB, MICROSECOND


def facts(*seqnos):
    return [Fact(key=(seqno,), seqno=seqno, value=(b"v%d" % seqno,)) for seqno in seqnos]


@pytest.fixture
def wal():
    nvram = NVRAMDevice("nv", SimClock(), capacity_bytes=MIB)
    return MonotonicWAL(nvram)


def test_commit_record_roundtrip():
    batch = facts(1, 2, 3)
    encoded = encode_commit_record("address_map", batch)
    name, decoded, end = decode_commit_record(encoded)
    assert name == "address_map"
    assert decoded == batch
    assert end == len(encoded)


def mixed_batch():
    """Every field kind, nested tuples, a raw-write-shaped value, empties."""
    return [
        Fact(key=(3, 4096), seqno=17, value=(b"\x00\xffraw" * 40,)),
        Fact(key=("vol\u00e9", -5, None), seqno=2 ** 40,
             value=((1, (2, "x")), True, b"")),
        Fact(key=(), seqno=0, value=()),
    ]


def test_commit_record_wire_format_is_pinned():
    """The one-pass encoder writes the bytes the nested one wrote."""
    encoded = encode_commit_record("raw_writes", mixed_batch())
    assert len(encoded) == 262
    assert hashlib.sha256(encoded).hexdigest() == (
        "714cca6c07e73897a2f6f7f70cea90fd2701afca7f6bea98738ab66a755de982"
    )
    name, decoded, end = decode_commit_record(encoded)
    assert (name, end) == ("raw_writes", len(encoded))
    # bools travel as ints; everything else comes back as it went in.
    expected = mixed_batch()
    expected[1] = Fact(expected[1].key, expected[1].seqno, ((1, (2, "x")), 1, b""))
    assert decoded == expected


def test_commit_record_is_encoded_in_one_pass(monkeypatch):
    """n facts -> one ``bytes``, built in one buffer: a counted guard.

    The nested encoder made 1 + 3n intermediate ``bytes`` (one per
    ``encode_value`` / ``encode_fact`` call), each copied into the next
    buffer up — a raw write's payload moved six times. A tracemalloc
    peak cannot see that (the intermediates die one by one), so count.
    """
    def forbid(name):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("encode_commit_record called %s" % name)

        monkeypatch.setattr(tuples_module, name, forbidden)
        monkeypatch.setattr(wal_module, name, forbidden, raising=False)

    forbid("encode_value")
    forbid("encode_fact")
    materialised = []

    class CountedBytes(bytes):
        def __new__(cls, source):
            materialised.append(len(source))
            return super().__new__(cls, source)

    monkeypatch.setattr(wal_module, "bytes", CountedBytes, raising=False)
    batch = mixed_batch() * 5
    encoded = encode_commit_record("raw_writes", batch)
    assert materialised == [len(encoded)]
    assert len(decode_commit_record(encoded)[1]) == len(batch)


def test_commit_persists_and_tracks_pending(wal):
    record_id, latency = wal.commit("rel", facts(1))
    assert latency < 500 * MICROSECOND
    assert wal.pending_count == 1
    assert wal.nvram.record_count == 1
    assert wal.commits == 1
    pending = wal.pending_records()
    assert pending[0][0] == record_id
    assert pending[0][1] == "rel"


def test_mark_persisted_trims(wal):
    id_a, _ = wal.commit("rel", facts(1))
    id_b, _ = wal.commit("rel", facts(2))
    wal.mark_persisted(id_a)
    assert wal.pending_count == 1
    assert wal.nvram.record_count == 1
    wal.mark_persisted(id_b)
    assert wal.pending_count == 0
    assert wal.nvram.record_count == 0


def test_mark_persisted_is_monotone(wal):
    id_a, _ = wal.commit("rel", facts(1))
    id_b, _ = wal.commit("rel", facts(2))
    wal.mark_persisted(id_b)
    wal.mark_persisted(id_a)  # late, lower id: must not resurrect
    assert wal.pending_count == 0


def test_recovery_scan_returns_unpersisted_batches(wal):
    wal.commit("rel_a", facts(1, 2))
    id_b, _ = wal.commit("rel_b", facts(3))
    wal.commit("rel_a", facts(4))
    batches, latency = wal.recovery_scan()
    assert latency > 0
    assert [(name, [f.seqno for f in batch]) for name, batch in batches] == [
        ("rel_a", [1, 2]),
        ("rel_b", [3]),
        ("rel_a", [4]),
    ]


def test_recovery_after_partial_trim(wal):
    id_a, _ = wal.commit("rel", facts(1))
    wal.commit("rel", facts(2))
    wal.mark_persisted(id_a)
    batches, _ = wal.recovery_scan()
    assert len(batches) == 1
    assert batches[0][1][0].seqno == 2
