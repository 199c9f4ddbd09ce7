"""Copy-up medium flattening: the strong <=3-hop read guarantee.

Shortcuts alone cannot shorten a chain whose intermediate mediums hold
data; the garbage collector then materializes the resolved content into
the top medium as references to the cblocks it already lives in, so
flattening moves no data.
"""

import pytest

from repro.mediums.resolver import chain_depth
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes

pytestmark = pytest.mark.slow


def build_deep_lineage_with_data(array, stream, generations=6):
    """Every generation writes something, so every medium holds extents
    and shortcuts cannot skip any level."""
    array.create_volume("base", 2 * MIB)
    expected = bytearray(2 * MIB)
    name = "base"
    for generation in range(generations):
        offset = generation * 16 * KIB
        payload = unique_bytes(16 * KIB, stream)
        array.write(name, offset, payload)
        expected[offset : offset + 16 * KIB] = payload
        array.snapshot(name, "s")
        child = "gen%d" % generation
        array.clone(name, "s", child)
        name = child
    return name, bytes(expected)


def test_copy_up_flattens_data_bearing_chains(array, stream):
    leaf, expected = build_deep_lineage_with_data(array, stream)
    anchor = array.volumes.anchor_medium(leaf)
    assert chain_depth(array.medium_table, anchor, 0) > 3
    array.run_gc()
    assert chain_depth(array.medium_table, anchor, 0) <= 3
    array.datapath.drop_caches()
    data, _ = array.read(leaf, 0, len(expected))
    assert data == expected


def test_copy_up_preserves_other_references(array, stream):
    """Flattening the leaf must not disturb its ancestors' contents."""
    leaf, _expected = build_deep_lineage_with_data(array, stream, generations=4)
    base_view, _ = array.read("base", 0, 64 * KIB)
    array.run_gc()
    base_after, _ = array.read("base", 0, 64 * KIB)
    assert base_after == base_view


def test_copy_up_is_mostly_dedup_not_copy(array, stream):
    """The materialized content references the existing cblocks, so
    flattening costs metadata, not a second copy of the data."""
    leaf, _expected = build_deep_lineage_with_data(array, stream)
    before = array.reduction_report()
    array.gc.flatten_medium(array.volumes.anchor_medium(leaf))
    after = array.reduction_report()
    assert after.physical_stored_bytes == before.physical_stored_bytes


def test_flattened_medium_survives_crash(array, stream):
    from repro.core.array import PurityArray
    from repro.core.recovery import recover_array

    leaf, expected = build_deep_lineage_with_data(array, stream, generations=4)
    array.run_gc()
    shelf, boot, clock = array.crash()
    recovered, _ = recover_array(PurityArray, array.config, shelf, boot, clock)
    data, _ = recovered.read(leaf, 0, len(expected))
    assert data == expected


def test_writes_after_flatten(array, stream):
    leaf, expected = build_deep_lineage_with_data(array, stream, generations=4)
    array.run_gc()
    fresh = unique_bytes(16 * KIB, stream)
    array.write(leaf, 512 * KIB, fresh)
    data, _ = array.read(leaf, 512 * KIB, 16 * KIB)
    assert data == fresh
    untouched, _ = array.read(leaf, 0, 16 * KIB)
    assert untouched == expected[: 16 * KIB]
