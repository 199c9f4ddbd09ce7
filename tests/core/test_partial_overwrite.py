"""Partial overwrites: a shorter write must not orphan a longer extent.

Address-map entries are keyed by (medium, start offset). A write that
starts exactly where a longer extent starts replaces that entry, and
before the read-modify-write fix in ``DataPath._ingest`` the replaced
extent's tail silently vanished — reads past the new write returned
zeros. (Surfaced by the cluster layer: MDM refresh copies write whole
volumes as one extent, then any small client write at offset 0 ate the
rest of the volume.)

Only a *same-key* landing replaces anything: an older extent at any
other key stays in the map and the read path overlays it by sequence
number, so the write path leaves it alone (no read, no re-ingest). The
keys a write inserts are known only after inline dedup has split it —
and ``unmap``'s hole facts are keys like any other.
"""

import pytest

from repro.core import tables as T
from repro.core.array import PurityArray
from repro.core.telemetry import perf_report
from repro.sim.rand import RandomStream
from repro.units import KIB

from tests.conftest import make_engine

SIZE = 16 * KIB


def _pattern(length, stamp=7):
    return bytes((stamp + i) % 251 for i in range(length))


def test_small_write_over_longer_extent_keeps_the_tail():
    array = make_engine(seed=5, volume="v", size=SIZE)
    base = _pattern(SIZE)
    array.write("v", 0, base)
    array.write("v", 0, b"Z" * 2048)
    assert array.read("v", 0, 2048)[0] == b"Z" * 2048
    assert array.read("v", 2048, SIZE - 2048)[0] == base[2048:]


def test_nested_displacement_resolves_recursively():
    array = make_engine(seed=6, volume="v", size=SIZE)
    base = _pattern(SIZE)
    expected = bytearray(base)
    array.write("v", 0, base)
    for offset, length, fill in ((4096, 8192, b"Q"), (0, 2048, b"Z"),
                                 (4096, 2048, b"W")):
        array.write("v", offset, fill * length)
        expected[offset:offset + length] = fill * length
    assert array.read("v", 0, SIZE)[0] == bytes(expected)


def test_same_size_rewrites_take_the_fast_path():
    """Uniform-record workloads never displace a tail: the address map
    holds exactly one extent per slot after repeated rewrites."""
    array = make_engine(seed=7, volume="v", size=SIZE)
    for rewrite in range(3):
        for slot in range(SIZE // 4096):
            array.write("v", slot * 4096,
                        _pattern(4096, stamp=rewrite + slot))
    for slot in range(SIZE // 4096):
        assert array.read("v", slot * 4096, 4096)[0] \
            == _pattern(4096, stamp=2 + slot)


def test_displaced_tail_survives_crash_recovery():
    from repro.core.array import PurityArray
    from repro.core.config import ArrayConfig

    config = ArrayConfig.small(seed=8)
    array = make_engine(config, volume="v", size=SIZE)
    base = _pattern(SIZE)
    array.write("v", 0, base)
    array.write("v", 0, b"Z" * 2048)
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(config, shelf, boot_region,
                                             clock)
    assert recovered.read("v", 0, 2048)[0] == b"Z" * 2048
    assert recovered.read("v", 14336, 2048)[0] == base[14336:]


def test_gc_and_scrub_keep_displaced_tails_live():
    array = make_engine(seed=9, volume="v", size=SIZE)
    base = _pattern(SIZE)
    array.write("v", 0, base)
    array.write("v", 0, b"Z" * 2048)
    array.run_gc()
    array.scrub()
    assert array.read("v", 2048, SIZE - 2048)[0] == base[2048:]


# ----------------------------------------------------------------------
# The exact rule: only an extent replaced at its key gives up a tail.


def _unique(length, seed):
    return RandomStream(seed).randbytes(length)


def _crash_and_recover(array):
    array.drain()
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(array.config, shelf,
                                             boot_region, clock)
    return recovered


def test_overlap_at_another_key_is_overlaid_not_reingested(monkeypatch):
    """16 KiB at 4 KiB, then 8 KiB at 0: the old extent starts inside
    the new write's span and runs past its end, but at a key the write
    never inserts — it stays mapped, and the write costs one dedup
    pass, no media read and no second ingest."""
    array = make_engine(seed=11, volume="v", size=64 * KIB)
    datapath = array.datapath
    old, new = _unique(16 * KIB, 1), _unique(8 * KIB, 2)
    array.write("v", 4 * KIB, old)
    array.drain()
    datapath.drop_caches()  # a tail capture would now have to hit media
    calls = []
    find_matches = datapath.deduper.find_matches
    monkeypatch.setattr(
        datapath.deduper, "find_matches",
        lambda chunk, vector: calls.append(len(chunk))
        or find_matches(chunk, vector),
    )
    device_reads = array.segreader.device_reads
    array.write("v", 0, new)
    assert calls == [8 * KIB]
    assert array.segreader.device_reads == device_reads
    assert datapath.tails_reingested == 0
    assert datapath.tail_bytes_reingested == 0
    expected = new + old[4 * KIB:]
    assert array.read("v", 0, 20 * KIB)[0] == expected
    array.drain()
    datapath.drop_caches()
    assert array.read("v", 0, 20 * KIB)[0] == expected


def _write_with_dedup_split(array, cblock):
    """A 16 KiB write at 0 that inline dedup splits into a 4 KiB unique
    run at 0, an 8 KiB reference into ``cblock`` at 4 KiB and a 4 KiB
    unique run at 12 KiB; returns its bytes."""
    data = _unique(4 * KIB, 21) + cblock[:8 * KIB] + _unique(4 * KIB, 22)
    array.write("v", 0, data)
    medium = array.volumes.anchor_medium("v")
    address_map = array.datapath.tables.address_map
    assert address_map.get((medium, 4 * KIB)).value[0] == T.EXTENT_DEDUP
    after_match = address_map.get((medium, 12 * KIB)).value
    assert (after_match[0], after_match[4]) == (T.EXTENT_DIRECT, 4 * KIB)
    return data


def test_key_made_by_a_dedup_split_keeps_the_tail_it_lands_on():
    """The write's own start is on no old key; the unique run *after*
    its dedup match starts exactly on a longer extent's key."""
    array = make_engine(seed=12, volume="v", size=128 * KIB)
    cblock, old = _unique(16 * KIB, 3), _unique(16 * KIB, 4)
    array.write("v", 64 * KIB, cblock)
    array.write("v", 12 * KIB, old)
    data = _write_with_dedup_split(array, cblock)
    assert array.datapath.tails_reingested == 1
    assert array.datapath.tail_bytes_reingested == 12 * KIB
    expected = data + old[4 * KIB:]
    assert array.read("v", 0, 28 * KIB)[0] == expected
    recovered = _crash_and_recover(array)
    assert recovered.read("v", 0, 28 * KIB)[0] == expected


def test_two_replaced_extents_extend_one_tail():
    """One chunk lands on two longer extents (keys 0 and 12 KiB): the
    second capture starts where the first stopped, and the tail is
    written back once."""
    array = make_engine(seed=13, volume="v", size=128 * KIB)
    cblock = _unique(16 * KIB, 5)
    far, near = _unique(16 * KIB, 6), _unique(20 * KIB, 7)
    array.write("v", 64 * KIB, cblock)
    array.write("v", 12 * KIB, far)   # [12, 28) KiB
    array.write("v", 0, near)         # [0, 20) KiB, newer where they overlap
    assert array.datapath.tails_reingested == 0
    data = _write_with_dedup_split(array, cblock)
    assert array.datapath.tails_reingested == 1
    assert array.datapath.tail_bytes_reingested == 12 * KIB
    expected = data + near[16 * KIB:] + far[8 * KIB:]
    assert array.read("v", 0, 28 * KIB)[0] == expected
    array.drain()
    array.datapath.drop_caches()
    assert array.read("v", 0, 28 * KIB)[0] == expected


def test_later_chunk_of_a_long_write_keeps_the_tail_it_lands_on():
    """72 KiB at 0 is three cblocks; only the last one's key (64 KiB)
    is on an extent that outruns the write."""
    array = make_engine(seed=14, volume="v", size=128 * KIB)
    old, new = _unique(16 * KIB, 8), _unique(72 * KIB, 9)
    array.write("v", 64 * KIB, old)
    before = perf_report()["counters"]
    array.write("v", 0, new)
    assert array.datapath.tails_reingested == 1
    assert array.datapath.tail_bytes_reingested == 8 * KIB
    after = perf_report()["counters"]
    assert after["displaced-tail"] - before.get("displaced-tail", 0) == 1
    assert after["displaced-tail-bytes"] \
        - before.get("displaced-tail-bytes", 0) == 8 * KIB
    expected = new + old[8 * KIB:]
    assert array.read("v", 0, 80 * KIB)[0] == expected
    array.drain()
    array.datapath.drop_caches()
    assert array.read("v", 0, 80 * KIB)[0] == expected


@pytest.mark.parametrize("extent_at, unmap_length", [
    (0, 4 * KIB),           # the hole's own start is the extent's key
    (32 * KIB, 36 * KIB),   # the second hole chunk's start is
])
def test_unmap_on_an_extents_key_keeps_the_rest_of_it(extent_at,
                                                      unmap_length):
    array = make_engine(seed=15, volume="v", size=128 * KIB)
    old = _unique(16 * KIB, 10)
    array.write("v", extent_at, old)
    array.unmap("v", 0, unmap_length)
    kept_from = unmap_length - extent_at
    expected = bytes(unmap_length) + old[kept_from:]
    assert array.read("v", 0, extent_at + 16 * KIB)[0] == expected
    assert array.datapath.tails_reingested == 1
    recovered = _crash_and_recover(array)
    assert recovered.read("v", 0, extent_at + 16 * KIB)[0] == expected


def test_unmap_inside_an_extent_reingests_nothing():
    array = make_engine(seed=16, volume="v", size=SIZE)
    base = _pattern(SIZE)
    array.write("v", 0, base)
    array.unmap("v", 4 * KIB, 4 * KIB)
    assert array.datapath.tails_reingested == 0
    assert array.read("v", 0, SIZE)[0] \
        == base[:4 * KIB] + bytes(4 * KIB) + base[8 * KIB:]


class _RecordingDict(dict):
    """A dict that remembers every key ``get`` was asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


def test_process_cblock_inserts_the_keys_it_checked(monkeypatch):
    """The keys looked up in the at-risk map and the address-map keys
    inserted come from one list: a dedup-split chunk (three extents)
    checks exactly the three keys it then writes."""
    array = make_engine(seed=17, volume="v", size=128 * KIB)
    datapath = array.datapath
    medium = array.volumes.anchor_medium("v")
    cblock = _unique(16 * KIB, 11)
    array.write("v", 64 * KIB, cblock)
    chunk = _unique(4 * KIB, 23) + cblock[:8 * KIB] + _unique(4 * KIB, 24)
    inserted = []
    insert_derived = datapath.pipeline.insert_derived

    def spy(relation, key, value):
        if relation == T.ADDRESS_MAP:
            inserted.append(key)
        return insert_derived(relation, key, value)

    monkeypatch.setattr(datapath.pipeline, "insert_derived", spy)
    # Non-empty so the check runs; its one entry is on none of the keys.
    at_risk = _RecordingDict({8 * KIB: 40 * KIB})
    tail = bytearray()
    datapath._process_cblock(medium, 0, chunk, at_risk=at_risk,
                             write_end=16 * KIB, tail=tail)
    assert inserted == [(medium, 0), (medium, 4 * KIB), (medium, 12 * KIB)]
    assert [(medium, key) for key in at_risk.asked] == inserted
    assert not tail
