"""Dedup segregation during GC (Section 4.7).

"Garbage collection also attempts to segregate deduplicated blocks into
their own segments, since blocks with multiple references are less
likely to become completely unreferenced due to overwrites." The
reproduction implements this as rewrite ordering: multi-reference
cblocks are evacuated first, so they cluster at the front of the
destination segments.
"""

from repro.core import tables as T
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes


def test_multi_reference_cblocks_rewritten_first(array, stream):
    array.create_volume("v", 2 * MIB)
    shared = unique_bytes(16 * KIB, stream)
    # One cblock referenced five times, plus several single-reference ones.
    array.write("v", 0, shared)
    for copy in range(1, 5):
        array.write("v", copy * 32 * KIB, shared)
    singles = {}
    for index in range(5, 10):
        payload = unique_bytes(16 * KIB, stream)
        array.write("v", index * 32 * KIB, payload)
        singles[index * 32 * KIB] = payload
    array.drain()
    # Find the data segment and evacuate it.
    live = array.datapath.live_cblocks_by_segment()
    victim = max(live, key=lambda seg: len(live[seg]))
    assert array.gc.collect_segment(victim)
    # The shared cblock's new home: the lowest payload offset among the
    # rewritten cblocks (multi-ref evacuated first).
    anchor = array.volumes.anchor_medium("v")
    shared_fact = array.tables.address_map.get((anchor, 0))
    single_offsets = [
        T.extent_location(array.tables.address_map.get((anchor, offset)).value)[1]
        for offset in singles
    ]
    assert T.extent_location(shared_fact.value)[1] <= min(single_offsets)
    # And everything still reads correctly.
    array.datapath.drop_caches()
    for copy in range(5):
        data, _ = array.read("v", copy * 32 * KIB, 16 * KIB)
        assert data == shared
    for offset, payload in singles.items():
        data, _ = array.read("v", offset, 16 * KIB)
        assert data == payload


def test_dedup_index_follows_gc_relocation(array, stream):
    """After GC moves a cblock, new duplicate writes still dedup onto it."""
    array.create_volume("v", 2 * MIB)
    payload = unique_bytes(16 * KIB, stream)
    array.write("v", 0, payload)
    array.write("v", 32 * KIB, payload)  # establishes dedup interest
    array.drain()
    live = array.datapath.live_cblocks_by_segment()
    victim = max(live, key=lambda seg: len(live[seg]))
    assert array.gc.collect_segment(victim)
    dedup_before = array.datapath.dedup_bytes_saved
    array.write("v", 64 * KIB, payload)
    assert array.datapath.dedup_bytes_saved > dedup_before
    data, _ = array.read("v", 64 * KIB, 16 * KIB)
    assert data == payload
