"""Reads plan, then fetch: only visible extents are read, in runs.

The read path first plans which extent piece supplies each byte — a
medium's extents newest first, each claiming only what no newer one
covers, the medium chain only under what is left — and then fetches
the planned cblocks the cache lacks, one ``read_payload`` per run of
payload-adjacent cblocks in a segio. So an extent a newer write hides
is never read (not even when its bytes are unreadable), and a
sequential read costs one device read per run, not one per cblock.
"""

from repro.core import tables as T
from repro.core.config import ArrayConfig
from repro.errors import UncorrectableError
from repro.sim.rand import RandomStream
from repro.units import KIB, MAX_CBLOCK

from tests.conftest import make_engine

SIZE = 64 * KIB


def _hidden_then_cover(array, volume):
    """8 KiB at 4 KiB, then 16 KiB at 0 over it: two keys, so both
    extents stay in the address map. Returns the expected 16 KiB."""
    stream = RandomStream(3).fork("read-plan")
    array.write(volume, 4 * KIB, stream.randbytes(8 * KIB))
    cover = stream.randbytes(16 * KIB)
    array.write(volume, 0, cover)
    array.drain()
    array.datapath.drop_caches()
    return cover


def _misses(array, volume, offset, length):
    cache = array.datapath._cblock_cache
    before = cache.misses
    data, _latency = array.read(volume, offset, length)
    return data, cache.misses - before


def test_a_hidden_extent_is_never_fetched():
    array = make_engine(seed=1, volume="v", size=SIZE)
    cover = _hidden_then_cover(array, "v")
    medium = array.volumes.anchor_medium("v")
    address_map = array.datapath.tables.address_map
    assert address_map.get((medium, 4 * KIB)) is not None  # still mapped
    data, misses = _misses(array, "v", 0, 16 * KIB)
    assert data == cover
    assert misses == 1


def test_a_clone_write_hides_its_base_extent():
    array = make_engine(seed=2, volume="base", size=SIZE)
    stream = RandomStream(4).fork("read-plan-clone")
    array.write("base", 4 * KIB, stream.randbytes(8 * KIB))
    array.snapshot("base", "s")
    array.clone("base", "s", "c")
    cover = stream.randbytes(16 * KIB)
    array.write("c", 0, cover)
    array.drain()
    array.datapath.drop_caches()
    data, misses = _misses(array, "c", 0, 16 * KIB)
    assert data == cover
    assert misses == 1


def test_an_unreadable_hidden_extent_does_not_fail_the_read():
    array = make_engine(seed=3, volume="v", size=SIZE)
    cover = _hidden_then_cover(array, "v")
    medium = array.volumes.anchor_medium("v")
    hidden = array.datapath.tables.address_map.get((medium, 4 * KIB)).value
    assert T.is_direct(hidden)
    segment_id, payload_offset, stored_length = T.extent_location(hidden)
    reader = array.segreader
    read_payload = reader.read_payload

    def failing(descriptor, offset, length):
        if (descriptor.segment_id == segment_id
                and offset < payload_offset + stored_length
                and payload_offset < offset + length):
            raise UncorrectableError("hidden cblock unreadable")
        return read_payload(descriptor, offset, length)

    reader.read_payload = failing
    assert array.read("v", 0, 16 * KIB)[0] == cover


def test_a_range_clone_reads_its_source_at_the_range_offset():
    """A medium may expose another's bytes at a different offset
    (``MediumTable.clone(start=...)``): the plan must carry each byte's
    buffer position down the chain with it."""
    array = make_engine(seed=4, volume="v", size=SIZE)
    stream = RandomStream(6).fork("read-plan-range")
    data = stream.randbytes(32 * KIB)
    array.write("v", 0, data)
    datapath = array.datapath
    clone = datapath.medium_table.clone(
        array.volumes.anchor_medium("v"), start=8 * KIB, end=24 * KIB
    )
    top = stream.randbytes(4 * KIB)
    datapath.write(clone, 4 * KIB, top)
    expected = data[8 * KIB:12 * KIB] + top + data[16 * KIB:24 * KIB]
    assert datapath.read(clone, 0, 16 * KIB)[0] == expected


def test_a_read_zero_fills_gaps_at_its_start_middle_and_end():
    """Unwritten bytes before, between and after two extents, and a
    hole punched inside one (over a clone's base), read as zeros from
    one read, cached or not."""
    array = make_engine(seed=5, volume="v", size=SIZE)
    stream = RandomStream(5).fork("read-plan-gaps")
    model = bytearray(SIZE)
    for offset, length in ((8 * KIB, 12 * KIB), (28 * KIB, 20 * KIB)):
        data = stream.randbytes(length)
        array.write("v", offset, data)
        model[offset : offset + length] = data
    array.snapshot("v", "s")
    array.clone("v", "s", "c")
    array.unmap("c", 32 * KIB, 4 * KIB)
    model[32 * KIB : 36 * KIB] = bytes(4 * KIB)
    array.drain()
    array.datapath.drop_caches()
    for offset, length in ((0, SIZE), (4 * KIB, 50 * KIB)) * 2:
        data, _latency = array.read("c", offset, length)
        assert data == model[offset : offset + length]
    assert not any(model[: 8 * KIB]) and not any(model[48 * KIB :])
    assert not any(model[20 * KIB : 28 * KIB])


def _sequential_array():
    """512 KiB written at the published geometry, drained, cache cold.
    Returns (array, data, the run's (segment, start, length))."""
    config = ArrayConfig.paper_scale(seed=5)
    array = make_engine(config=config)
    array.create_volume("v", 1024 * KIB)
    stream = RandomStream(5).fork("read-plan-seq")
    data = stream.randbytes(512 * KIB)
    array.write("v", 0, data)
    array.drain()
    # Idle drives: a read must not be steered around a program window.
    while any(drive.queue_depth() for drive in array.drives.values()):
        array.clock.advance(0.001)
    array.datapath.drop_caches()
    medium = array.volumes.anchor_medium("v")
    facts = list(array.datapath.tables.address_map.scan(
        (medium, 0), (medium, 2 ** 62)
    ))
    assert len(facts) == 512 * KIB // MAX_CBLOCK
    locations = [T.extent_location(fact.value) for fact in facts]
    segments = {segment for segment, _offset, _stored in locations}
    assert len(segments) == 1
    start = min(offset for _segment, offset, _stored in locations)
    end = max(offset + stored for _segment, offset, stored in locations)
    # Written back to back into one segio: one payload-adjacent run.
    assert sum(stored for _segment, _offset, stored in locations) \
        == end - start
    per_segio = config.segment_geometry.payload_per_segio
    assert start // per_segio == (end - 1) // per_segio
    return array, data, (segments.pop(), start, end - start)


def _spy(reader, name, calls):
    method = getattr(reader, name)

    def spy(*args):
        calls.append(args)
        return method(*args)

    setattr(reader, name, spy)


def test_a_sequential_read_is_one_read_payload_per_run():
    array, data, (_segment, start, length) = _sequential_array()
    calls = []
    _spy(array.segreader, "read_payload", calls)
    before = array.segreader.device_reads
    assert array.read("v", 0, 512 * KIB)[0] == data
    assert [(call[1], call[2]) for call in calls] == [(start, length)]
    chunks = list(array.config.segment_geometry.split_payload_range(
        start, length
    ))
    assert array.segreader.device_reads - before == len(chunks)


def test_two_pulled_drives_rebuild_each_slice_once():
    array, data, (segment_id, start, length) = _sequential_array()
    geometry = array.config.segment_geometry
    chunks = list(geometry.split_payload_range(start, length))
    descriptor = array.datapath.descriptor_for(segment_id)
    # Pull the drive under the run's first shard and one more.
    first_shard = chunks[0][1]
    pulled = {descriptor.placements[first_shard][0],
              descriptor.placements[
                  (first_shard + 1) % geometry.total_shards][0]}
    for name in sorted(pulled):
        array.fail_drive(name)
    rebuilt = []
    _spy(array.segreader, "_reconstruct_chunk", rebuilt)
    assert array.read("v", 0, 512 * KIB)[0] == data
    expected = sorted(
        (segio, shard) for segio, shard, _within, _length in chunks
        if descriptor.placements[shard][0] in pulled
    )
    assert expected  # the pulled drives do hold part of the run
    assert sorted((call[1], call[2]) for call in rebuilt) == expected
