"""The copy that must stay: flushed write units own their bytes.

A segio's accumulation buffer goes back to the pool the moment its
flush returns, and the codec's parity buffer is overwritten by the next
encode. Under the sanitizer the released buffer is poison-filled at
once, so a write unit (or a drive store) that aliases either buffer
instead of owning its bytes reads back as 0xA5 — loudly, here.
"""

import pytest

from repro.layout.segment import SegioHeader
from repro.layout.pools import BufferPool
from repro.sim.rand import RandomStream
from repro.units import KIB
from tests.layout.conftest import (  # noqa: F401  (fixtures, by name)
    allocator,
    clock,
    codec,
    drives,
    frontier,
    geometry,
    writer,
)


@pytest.fixture
def armed(monkeypatch):
    # Read once, when the pool is constructed.
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def test_flushed_write_units_survive_buffer_recycling(
    armed, writer, geometry, codec, drives, clock
):
    stream = RandomStream(23)
    pool = writer.buffer_pool = BufferPool(max_buffers=2, name="pool.segio")

    expected = {}  # segio index -> the payload image that must be on media
    for segio_index in range(3):
        image = bytearray(geometry.payload_per_segio)
        data = stream.randbytes(40 * KIB + segio_index)
        record = stream.randbytes(3 * KIB)
        descriptor, offset, _ = writer.append_data(data)
        within = offset - segio_index * geometry.payload_per_segio
        image[within : within + len(data)] = data
        _descriptor, (locator, length), _ = writer.append_log_record(
            record, seq_min=1, seq_max=2, record_id=segio_index
        )
        within = locator - segio_index * geometry.payload_per_segio
        image[within : within + length] = record
        expected[segio_index] = bytes(image)
        writer.flush()
        clock.advance(1.0)
    # The second and third segio were filled in the first one's buffer.
    assert pool.hits == 2 and pool.misses == 1

    body = geometry.shard_body
    for segio_index, image in expected.items():
        bodies = []
        for shard, (drive_name, au_index) in enumerate(descriptor.placements):
            unit = drives[drive_name].read(
                geometry.device_offset(au_index * geometry.au_size, segio_index, 0),
                geometry.write_unit,
            ).data
            header = SegioHeader.decode(unit[: geometry.wu_header_size])
            assert (header.segio_index, header.shard_index) == (segio_index, shard)
            bodies.append(unit[geometry.wu_header_size :])
        assert b"".join(bodies[: geometry.data_shards]) == image
        assert bodies[geometry.data_shards :] == codec.encode(
            [image[index * body : (index + 1) * body]
             for index in range(geometry.data_shards)]
        )
