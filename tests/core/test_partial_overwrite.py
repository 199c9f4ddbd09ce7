"""Partial overwrites: a shorter write must not orphan a longer extent.

Address-map entries are keyed by (medium, start offset). A write that
starts exactly where a longer extent starts replaces that entry, and
before the fix in ``DataPath.process_write`` the replaced extent's tail
silently vanished — reads past the new write returned zeros. (Surfaced
by the cluster layer: MDM refresh copies write whole volumes as one
extent, then any small client write at offset 0 ate the rest of the
volume.) The replaced extent now keeps what it still supplies past the
write as references into its own cblock, or as holes: nothing is read,
hashed, compressed or appended again.

Only a *same-key* landing replaces anything: an older extent at any
other key stays in the map and the read path overlays it by sequence
number, so the write path leaves it alone. The keys a write inserts are
known only after inline dedup has split it — and ``unmap``'s hole facts
are keys like any other, committed in one WAL record with the
remainders they make.
"""

import pytest

from repro.core import tables as T
from repro.core.array import PurityArray
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
    datapath.drop_caches()  # any read of the old extent would hit media
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
    assert datapath.tails_repointed == 0
    assert datapath.tail_bytes_repointed == 0
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
    match = address_map.get((medium, 4 * KIB)).value
    assert not T.is_hole(match) and not T.is_direct(match)
    after_match = address_map.get((medium, 12 * KIB)).value
    assert T.is_direct(after_match)
    assert T.extent_length(after_match) == 4 * KIB
    return data


def test_key_made_by_a_dedup_split_keeps_the_tail_it_lands_on():
    """The write's own start is on no old key; the unique run *after*
    its dedup match starts exactly on a longer extent's key."""
    array = make_engine(seed=12, volume="v", size=128 * KIB)
    cblock, old = _unique(16 * KIB, 3), _unique(16 * KIB, 4)
    array.write("v", 64 * KIB, cblock)
    array.write("v", 12 * KIB, old)
    data = _write_with_dedup_split(array, cblock)
    assert array.datapath.tails_repointed == 1
    assert array.datapath.tail_bytes_repointed == 12 * KIB
    expected = data + old[4 * KIB:]
    assert array.read("v", 0, 28 * KIB)[0] == expected
    recovered = _crash_and_recover(array)
    assert recovered.read("v", 0, 28 * KIB)[0] == expected


def test_two_replaced_extents_each_keep_their_remainder():
    """One chunk lands on two longer extents (keys 0 and 12 KiB): each
    keeps only the bytes it still supplies past the write — the newer
    one [16, 20) KiB, the older one the rest."""
    array = make_engine(seed=13, volume="v", size=128 * KIB)
    cblock = _unique(16 * KIB, 5)
    far, near = _unique(16 * KIB, 6), _unique(20 * KIB, 7)
    array.write("v", 64 * KIB, cblock)
    array.write("v", 12 * KIB, far)   # [12, 28) KiB
    array.write("v", 0, near)         # [0, 20) KiB, newer where they overlap
    assert array.datapath.tails_repointed == 0
    data = _write_with_dedup_split(array, cblock)
    assert array.datapath.tails_repointed == 2
    assert array.datapath.tail_bytes_repointed == 12 * KIB
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
    array.write("v", 0, new)
    assert array.datapath.tails_repointed == 1
    assert array.datapath.tail_bytes_repointed == 8 * KIB
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
    assert array.datapath.tails_repointed == 1
    recovered = _crash_and_recover(array)
    assert recovered.read("v", 0, extent_at + 16 * KIB)[0] == expected


def test_unmap_inside_an_extent_reingests_nothing():
    array = make_engine(seed=16, volume="v", size=SIZE)
    base = _pattern(SIZE)
    array.write("v", 0, base)
    array.unmap("v", 4 * KIB, 4 * KIB)
    assert array.datapath.tails_repointed == 0
    assert array.read("v", 0, SIZE)[0] \
        == base[:4 * KIB] + bytes(4 * KIB) + base[8 * KIB:]




class _RecordingDict(dict):
    """A dict that remembers every key ``pop`` was asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def pop(self, key, *default):
        self.asked.append(key)
        return super().pop(key, *default)


def test_process_cblock_inserts_the_keys_it_checked(monkeypatch):
    """The keys looked up in the at-risk map and the address-map keys
    inserted come from one list: a dedup-split chunk (three extents)
    checks exactly the three keys it then writes, each under the
    write's rank."""
    array = make_engine(seed=17, volume="v", size=128 * KIB)
    datapath = array.datapath
    medium = array.volumes.anchor_medium("v")
    cblock = _unique(16 * KIB, 11)
    array.write("v", 64 * KIB, cblock)
    far = datapath.tables.address_map.get((medium, 64 * KIB))
    chunk = _unique(4 * KIB, 23) + cblock[:8 * KIB] + _unique(4 * KIB, 24)
    inserted = []
    insert_derived = datapath.pipeline.insert_derived
    rank = datapath.pipeline.sequence.next()

    def spy(relation, key, value, seqno=None):
        if relation == T.ADDRESS_MAP:
            assert seqno == T.extent_rank(value) == rank
            inserted.append(key)
        return insert_derived(relation, key, value, seqno)

    monkeypatch.setattr(datapath.pipeline, "insert_derived", spy)
    # Non-empty so the check runs; its one entry is on none of the keys.
    at_risk = _RecordingDict({8 * KIB: far})
    datapath._process_cblock(medium, 0, chunk, at_risk=at_risk,
                             write_end=16 * KIB, rank=rank)
    assert inserted == [(medium, 0), (medium, 4 * KIB), (medium, 12 * KIB)]
    assert [(medium, key) for key in at_risk.asked] == inserted
    assert at_risk == {8 * KIB: far}
    assert datapath.tails_repointed == 0


# ----------------------------------------------------------------------
# Remainders are references, never a read-modify-write.


def test_write_on_an_extents_key_reads_nothing_and_stores_only_itself(
        monkeypatch):
    """4 KiB at the key of a drained, uncached 16 KiB extent: no device
    read, one dedup pass, one compress, no decompress, and the rest of
    the old extent is a reference 8 sectors into its cblock."""
    import repro.core.datapath as datapath_module

    array = make_engine(seed=18, volume="v", size=64 * KIB)
    datapath = array.datapath
    medium = array.volumes.anchor_medium("v")
    old, new = _unique(16 * KIB, 12), _unique(4 * KIB, 13)
    array.write("v", 0, old)
    array.drain()
    datapath.drop_caches()
    original = datapath.tables.address_map.get((medium, 0)).value
    counts = {"find_matches": 0, "compress": 0, "decompress": 0}

    def counting(name, function):
        def counted(*args):
            counts[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(datapath.deduper, "find_matches", counting(
        "find_matches", datapath.deduper.find_matches))
    monkeypatch.setattr(datapath.compressor, "compress", counting(
        "compress", datapath.compressor.compress))
    monkeypatch.setattr(datapath_module, "parse_cblock", counting(
        "decompress", datapath_module.parse_cblock))
    device_reads = array.segreader.device_reads
    array.write("v", 0, new)
    assert array.segreader.device_reads == device_reads
    assert counts == {"find_matches": 1, "compress": 1, "decompress": 0}
    assert datapath.tails_repointed == 1
    assert datapath.tail_bytes_repointed == 12 * KIB
    assert datapath.tables.address_map.get((medium, 4 * KIB)).value == (
        T.extent_ref(*T.extent_location(original), 16 * KIB, 8, 12 * KIB,
                     T.extent_rank(original)))
    expected = new + old[4 * KIB:]
    array.drain()
    datapath.drop_caches()
    assert array.read("v", 0, 16 * KIB)[0] == expected
    # Undrained: recovery replays the write and keeps the remainder anew.
    array.write("v", 0, new)
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(array.config, shelf,
                                             boot_region, clock)
    recovered.datapath.drop_caches()
    assert recovered.read("v", 0, 16 * KIB)[0] == expected


def _collision_layout(array):
    """H = [4, 24) KiB, then E = [0, 16) KiB over it: E's remainder
    from 4 KiB starts on H's key, and H still supplies [16, 24)."""
    hidden, replaced = _unique(20 * KIB, 14), _unique(16 * KIB, 15)
    array.write("v", 4 * KIB, hidden)
    array.write("v", 0, replaced)
    return replaced[4 * KIB:] + hidden[12 * KIB:]


@pytest.mark.parametrize("unmap", [False, True])
def test_remainder_on_a_hidden_extents_key_keeps_that_extents_rest(unmap):
    array = make_engine(seed=19, volume="v", size=64 * KIB)
    rest = _collision_layout(array)
    if unmap:
        head = bytes(4 * KIB)
        array.unmap("v", 0, 4 * KIB)
    else:
        head = _unique(4 * KIB, 16)
        array.write("v", 0, head)
    expected = head + rest
    assert array.read("v", 0, 24 * KIB)[0] == expected
    array.drain()
    array.datapath.drop_caches()
    assert array.read("v", 0, 24 * KIB)[0] == expected
    recovered = _crash_and_recover(array)
    assert recovered.read("v", 0, 24 * KIB)[0] == expected


def test_unmap_on_an_extents_key_is_one_wal_record():
    array = make_engine(seed=20, volume="v", size=64 * KIB)
    old = _unique(16 * KIB, 17)
    array.write("v", 0, old)
    array.drain()
    wal = array.pipeline.wal
    commits = wal.commits
    array.unmap("v", 0, 4 * KIB)
    assert wal.commits - commits == 1
    assert array.read("v", 0, 16 * KIB)[0] == bytes(4 * KIB) + old[4 * KIB:]


def test_unmap_crash_after_its_record_keeps_hole_and_remainder_together():
    """A crash right after the unmap's NVRAM append recovers to the old
    bytes or to the hole plus the intact remainder — never a hole whose
    extent lost the rest of its bytes."""
    from repro.errors import InjectedCrashError
    from repro.faults import plan as P
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan, FaultSpec

    array = make_engine(seed=21, volume="v", size=64 * KIB)
    old = _unique(16 * KIB, 18)
    array.write("v", 0, old)
    array.drain()
    plan = FaultPlan()
    plan.add(FaultSpec(0, P.CRASH, "nvram.post-append"))
    FaultInjector(plan).attach(array).advance_to_op(0)
    with pytest.raises(InjectedCrashError):
        array.unmap("v", 0, 4 * KIB)
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(array.config, shelf,
                                             boot_region, clock)
    recovered.datapath.drop_caches()
    data = recovered.read("v", 0, 16 * KIB)[0]
    assert data in (old, bytes(4 * KIB) + old[4 * KIB:])


def test_unmap_flushes_the_cblock_its_remainder_points_at():
    """The extent is still in the open segio's RAM: the unmap's WAL
    record must not reference never-flushed bytes, so it flushes first."""
    array = make_engine(seed=22, volume="v", size=64 * KIB)
    old = _unique(16 * KIB, 19)
    array.write("v", 0, old)
    medium = array.volumes.anchor_medium("v")
    value = array.datapath.tables.address_map.get((medium, 0)).value
    segwriter = array.segwriter
    assert segwriter.read_unflushed(value[1], value[2], value[3]) is not None
    array.unmap("v", 0, 4 * KIB)
    assert segwriter.read_unflushed(value[1], value[2], value[3]) is None
    shelf, boot_region, clock = array.crash()
    recovered, _report = PurityArray.recover(array.config, shelf,
                                             boot_region, clock)
    recovered.datapath.drop_caches()
    data = recovered.read("v", 0, 16 * KIB)[0]
    assert data in (old, bytes(4 * KIB) + old[4 * KIB:])
