"""The address map's overlay order is the client write order.

A medium's extents overlay each other by rank, the seqno of the client
operation that supplied their bytes, and no background path may change
it: GC's repoint, background dedup and recovery's replay each put an
old extent back into the map, and each must leave what a read returns
as it was. Every test here but the last read wrong bytes while those
paths stamped the extents they re-inserted with a fresh seqno; the last
pins that an elision still covers a medium's repointed extents.

The finding-1 tape is the plainest shape of the class: unaligned
writes of incompressible bytes that overlap at other keys, with GC
every 50 writes. Sanitizer-lane suite: GC's repoint walks dicts of
relocations, and the two hash-seed legs show the result does not move
with dict order.
"""

import random

import pytest

from repro.core.array import PurityArray
from repro.units import KIB, MIB, SECTOR

from tests.conftest import make_engine


def _recover(array):
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(array.config, shelf,
                                             boot_region, clock)
    recovered.datapath.drop_caches()
    return recovered


def _wrong_sectors(array, volume, model):
    data = array.read(volume, 0, len(model))[0]
    return sum(1 for at in range(0, len(model), SECTOR)
               if data[at:at + SECTOR] != model[at:at + SECTOR])


def test_unaligned_overwrites_survive_every_gc_pass():
    """Finding 1's tape: 400 writes of 4–64 KiB at random sectors of a
    2 MiB volume, GC every 50; 316 sectors read wrong after the first
    pass when a repointed extent was ranked by its fresh seqno."""
    size = 2 * MIB
    array = make_engine(seed=7, volume="v", size=size)
    model = bytearray(size)
    pick, payload = random.Random(1), random.Random(99)
    for step in range(1, 401):
        length = pick.randint(8, 128) * SECTOR
        offset = pick.randint(0, (size - length) // SECTOR) * SECTOR
        data = payload.randbytes(length)
        array.write("v", offset, data)
        model[offset:offset + length] = data
        if step % 50 == 0:
            array.run_gc(max_segments=8)
            assert _wrong_sectors(array, "v", model) == 0, "write %d" % step
    array.datapath.drop_caches()
    assert _wrong_sectors(array, "v", model) == 0
    assert _wrong_sectors(_recover(array), "v", model) == 0


def _churn(array, model, payload, rounds=12):
    """Overwrite ``v`` outside [0, 64) KiB until GC finds its first
    segments mostly dead."""
    for step in range(rounds):
        offset = 64 * KIB + (step % 4) * 32 * KIB
        data = payload.randbytes(32 * KIB)
        array.write("v", offset, data)
        model[offset:offset + len(data)] = data


def test_gc_after_an_unmap_keeps_the_hole():
    """Defect (i): an unmap inside an older extent, then GC repoints the
    extent; the hole still wins over it."""
    array = make_engine(seed=31, volume="v", size=256 * KIB)
    model = bytearray(256 * KIB)
    payload = random.Random(31)
    base = payload.randbytes(32 * KIB)
    array.write("v", 0, base)
    model[:32 * KIB] = base
    array.unmap("v", 8 * KIB, 8 * KIB)
    model[8 * KIB:16 * KIB] = bytes(8 * KIB)
    _churn(array, model, payload)
    array.drain()
    assert array.run_gc(max_segments=100).segments_collected
    array.datapath.drop_caches()
    assert _wrong_sectors(array, "v", model) == 0


def test_gc_after_a_dedup_split_write_keeps_the_newer_write():
    """Defect (ii): inline dedup splits an 8 KiB record into a unique run
    and a reference at a key inside it; a rewrite of the whole record
    hides the reference, and GC repoints it."""
    array = make_engine(seed=32, volume="v", size=256 * KIB)
    model = bytearray(256 * KIB)
    payload = random.Random(32)
    shared = payload.randbytes(16 * KIB)
    array.write("v", 224 * KIB, shared)
    model[224 * KIB:] = shared
    record = payload.randbytes(4 * KIB) + shared[:4 * KIB]
    array.write("v", 0, record)
    assert array.datapath.dedup_bytes_saved == 4 * KIB
    rewrite = payload.randbytes(8 * KIB)
    array.write("v", 0, rewrite)
    model[:8 * KIB] = rewrite
    _churn(array, model, payload)
    array.drain()
    assert array.run_gc(max_segments=100).segments_collected
    array.datapath.drop_caches()
    assert _wrong_sectors(array, "v", model) == 0


@pytest.mark.parametrize("hole_at", [0, 8 * KIB])
def test_undrained_unmap_survives_crash_and_recover(hole_at):
    """Defect (iii): a write and an unmap inside it, neither drained.
    Recovery unions the unmap's holes from NVRAM, then replays the older
    write: at another key (8 KiB) the replayed extent keeps the write's
    rank, and on the write's own key (0) its derived fact keeps the raw
    record's seqno, so the hole stays the latest version there."""
    array = make_engine(seed=33, volume="v", size=1 * MIB)
    data = random.Random(33).randbytes(16 * KIB)
    array.write("v", 64 * KIB, data)
    array.unmap("v", 64 * KIB + hole_at, 8 * KIB)
    expected = bytearray(data)
    expected[hole_at:hole_at + 8 * KIB] = bytes(8 * KIB)
    assert array.read("v", 64 * KIB, 16 * KIB)[0] == expected
    recovered = _recover(array)
    assert recovered.read("v", 64 * KIB, 16 * KIB)[0] == expected


def test_destroyed_volume_stays_empty_through_gc_and_recovery():
    """Elisions hold across GC: a destroyed volume's medium, whose
    extents GC repointed under newer seqnos, stays empty through a sweep
    and recovery, and a re-created volume of the same name keeps its
    writes."""
    array = make_engine(seed=34, volume="v", size=256 * KIB)
    payload = random.Random(34)
    old_medium = array.volumes.anchor_medium("v")
    for _round in range(3):
        for offset in range(0, 256 * KIB, 32 * KIB):
            array.write("v", offset, payload.randbytes(32 * KIB))
    array.write("v", 4 * KIB, payload.randbytes(8 * KIB))
    array.drain()
    assert array.run_gc(max_segments=100).cblocks_rewritten
    array.destroy_volume("v")
    array.create_volume("v", 256 * KIB)
    fresh = payload.randbytes(48 * KIB)
    array.write("v", 16 * KIB, fresh)
    array.drain()
    array.run_gc(max_segments=100)
    recovered = _recover(array)
    address_map = recovered.tables.address_map
    assert list(address_map.scan((old_medium, 0), (old_medium, 2 ** 62))) == []
    assert recovered.volumes.anchor_medium("v") != old_medium
    expected = bytes(16 * KIB) + fresh + bytes(192 * KIB)
    assert recovered.read("v", 0, 256 * KIB)[0] == expected
