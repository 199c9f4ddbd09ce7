"""Integration tests: segment writer + reader over simulated drives."""

import pytest

from repro.errors import UncorrectableError


def advance(clock, seconds=1.0):
    clock.advance(seconds)


def test_write_flush_read_roundtrip(writer, reader, clock):
    payload = bytes(range(256)) * 20
    descriptor, offset, _latency = writer.append_data(payload)
    writer.flush()
    advance(clock)
    data, latency = reader.read_payload(descriptor, offset, len(payload))
    assert data == payload
    assert latency > 0
    assert reader.reconstructed_reads == 0


def test_read_spanning_shards(writer, reader, clock, geometry):
    big = bytes((i * 7) % 256 for i in range(3 * geometry.shard_body))
    descriptor, offset, _ = writer.append_data(big)
    writer.flush()
    advance(clock)
    data, _ = reader.read_payload(descriptor, offset, len(big))
    assert data == big


def test_segio_rollover_on_overflow(writer, geometry):
    almost = geometry.payload_per_segio - 100
    descriptor_a, offset_a, _ = writer.append_data(b"a" * almost)
    descriptor_b, offset_b, _ = writer.append_data(b"b" * 500)
    assert offset_b >= geometry.payload_per_segio  # landed in segio 1
    assert descriptor_b.segment_id == descriptor_a.segment_id
    assert writer.segios_flushed == 1  # overflow forced a flush
    assert writer.padding_bytes_written == 100  # the gap b"b" did not fit


def test_segment_rollover_allocates_new_group(writer, geometry):
    per_segment = geometry.payload_per_segment
    blob = b"x" * (geometry.payload_per_segio - 200)
    descriptors = set()
    written = 0
    while written <= per_segment:
        descriptor, _offset, _ = writer.append_data(blob)
        descriptors.add(descriptor.segment_id)
        written += len(blob)
    assert len(descriptors) >= 2
    assert writer.segments_opened >= 2


def test_read_with_failed_drive_reconstructs(writer, reader, drives, clock):
    payload = b"precious" * 512
    descriptor, offset, _ = writer.append_data(payload)
    writer.flush()
    advance(clock)
    drives[descriptor.placements[0][0]].fail()
    data, _ = reader.read_payload(descriptor, offset, len(payload))
    assert data == payload
    assert reader.reconstructed_reads > 0


def test_read_with_two_failed_drives_reconstructs(writer, reader, drives, clock):
    payload = b"double-fault" * 341
    descriptor, offset, _ = writer.append_data(payload)
    writer.flush()
    advance(clock)
    drives[descriptor.placements[0][0]].fail()
    drives[descriptor.placements[3][0]].fail()
    data, _ = reader.read_payload(descriptor, offset, len(payload))
    assert data == payload


def test_reconstruct_chunk_rebuilds_one_shard(writer, reader, codec, geometry,
                                              clock, monkeypatch):
    """k survivors read, k multiply-accumulates, the target's bytes back.

    ``_reconstruct_chunk`` stops reading at k survivors, so the stripe
    it hands the codec has two empty slots; rebuilding both doubled the
    decode work of every degraded read, read-around and hedge.
    """
    from repro.erasure.gf256 import GF256

    payload = bytes(range(251)) * 200  # reaches into the fourth shard
    descriptor, _offset, _ = writer.append_data(payload)
    writer.flush()
    advance(clock)
    stripes = []
    reconstruct = codec.reconstruct

    def spy(shards, **kwargs):
        stripes.append(list(shards))
        return reconstruct(shards, **kwargs)

    monkeypatch.setattr(codec, "reconstruct", spy)
    calls = []
    addmul = GF256.addmul_array
    monkeypatch.setattr(
        GF256, "addmul_array", lambda *args: calls.append(1) or addmul(*args)
    )
    target, within, length = 1, 100, 2000
    data, _latency = reader._reconstruct_chunk(descriptor, 0, target, within, length)
    assert len(calls) == geometry.data_shards
    (stripe,) = stripes
    assert stripe.count(None) == 2 and stripe[target] is None
    monkeypatch.undo()
    assert data == codec.reconstruct(stripe)[target]
    start = target * geometry.shard_body + within
    assert data == payload[start : start + length]


def test_three_failures_uncorrectable(writer, reader, drives, clock):
    payload = b"gone" * 256
    descriptor, offset, _ = writer.append_data(payload)
    writer.flush()
    advance(clock)
    for shard in (0, 1, 2):
        drives[descriptor.placements[shard][0]].fail()
    with pytest.raises(UncorrectableError):
        reader.read_payload(descriptor, offset, len(payload))


def test_avoid_policy_triggers_reconstruction(writer, geometry, codec, drives, clock):
    from repro.layout.segreader import SegmentReader

    payload = b"busy" * 600
    descriptor, offset, _ = writer.append_data(payload)
    writer.flush()
    advance(clock)
    target_drive = drives[descriptor.placements[0][0]]
    avoiding = SegmentReader(
        geometry, codec, drives, avoid_policy=lambda drive: drive is target_drive
    )
    data, _ = avoiding.read_payload(descriptor, offset, len(payload))
    assert data == payload
    assert avoiding.reconstructed_reads > 0


def test_log_records_and_header_scan(writer, reader, frontier, clock):
    scan_units = list(frontier.scan_set())
    descriptor, locator, _ = writer.append_log_record(
        b"fact-batch-1", seq_min=10, seq_max=12, record_id=1
    )
    writer.append_log_record(b"fact-batch-2", seq_min=13, seq_max=15, record_id=2)
    writer.append_data(b"user data" * 100)
    writer.flush()
    advance(clock)
    headers, latency = reader.scan_headers(scan_units)
    assert latency > 0
    ours = [h for h in headers if h.segment_id == descriptor.segment_id]
    assert len(ours) == 1
    header = ours[0]
    assert header.seq_min == 10
    assert header.seq_max == 15
    assert header.max_record_id == 2
    assert len(header.log_locators) == 2
    record, _ = reader.read_log_record(descriptor, locator)
    assert record == b"fact-batch-1"


def test_header_scan_survives_drive_failure(writer, reader, frontier, drives, clock):
    scan_units = list(frontier.scan_set())
    descriptor, _locator, _ = writer.append_log_record(
        b"replicated", seq_min=1, seq_max=1, record_id=0
    )
    writer.flush()
    advance(clock)
    drives[descriptor.placements[0][0]].fail()
    headers, _ = reader.scan_headers(scan_units)
    assert any(h.segment_id == descriptor.segment_id for h in headers)


def test_flush_callback_reports_descriptor(geometry, codec, drives, frontier, clock):
    from repro.layout.segwriter import SegmentWriter

    flushed = []
    writer = SegmentWriter(
        geometry, codec, drives, frontier, clock,
        on_segio_flushed=lambda descriptor, segio: flushed.append(
            (descriptor.segment_id, segio.segio_index)
        ),
    )
    writer.append_data(b"z" * 100)
    writer.flush()
    assert flushed == [(1, 0)]


def test_checkpointer_invoked_on_frontier_exhaustion(
    geometry, codec, drives, allocator, clock
):
    from repro.layout.frontier import FrontierManager
    from repro.layout.segwriter import SegmentWriter

    frontier = FrontierManager(allocator, batch_per_drive=1, speculative_batches=0)
    frontier.refill()
    frontier.mark_persisted()
    checkpoints = []

    def checkpointer():
        frontier.refill()
        frontier.mark_persisted()
        checkpoints.append(clock.now)

    writer = SegmentWriter(
        geometry, codec, drives, frontier, clock, checkpointer=checkpointer
    )
    blob = b"f" * (geometry.payload_per_segio - 200)
    for _ in range(geometry.segios_per_segment * 2):
        writer.append_data(blob)
    assert checkpoints  # second segment required a refill


def test_degraded_write_then_read(writer, reader, drives, clock):
    """A drive that fails before flush still leaves data recoverable."""
    payload = b"written-degraded" * 128
    writer.append_data(payload)
    descriptor = writer.current_descriptor
    failed_drive = descriptor.placements[2][0]
    drives[failed_drive].fail()
    writer.flush()
    advance(clock)
    offset = 0
    data, _ = reader.read_payload(descriptor, offset, len(payload))
    assert data == payload
