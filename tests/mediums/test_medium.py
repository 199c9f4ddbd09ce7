"""Tests for the medium table (Figure 6 semantics)."""

import pytest

from repro.errors import SnapshotError
from repro.mediums.medium import (
    MEDIUM_NONE,
    STATUS_RO,
    STATUS_RW,
    MediumTable,
)
from repro.mediums.resolver import chain_depth, resolve_chain
from repro.pyramid.relation import Relation
from repro.pyramid.tuples import SequenceGenerator


@pytest.fixture
def table():
    relation = Relation("mediums", key_arity=2)
    seq = SequenceGenerator()
    return MediumTable(
        relation, inserter=lambda key, value: relation.insert(key, value, seq.next())
    )


def test_create_medium(table):
    medium = table.create_medium(4000)
    ranges = table.ranges_of(medium)
    assert len(ranges) == 1
    row = ranges[0]
    assert (row.start, row.end) == (0, 4000)
    assert row.maps_directly()
    assert row.writable
    assert table.size_of(medium) == 4000
    assert table.is_writable(medium)


def test_medium_ids_are_dense_and_monotone(table):
    first = table.create_medium(100)
    second = table.create_medium(100)
    assert second == first + 1


def test_snapshot_freezes_base(table):
    base = table.create_medium(4000)
    snapshot, new_anchor = table.snapshot(base)
    assert not table.is_writable(base)
    snap_row = table.ranges_of(snapshot)[0]
    assert snap_row.target == base
    assert snap_row.status == STATUS_RO
    anchor_row = table.ranges_of(new_anchor)[0]
    assert anchor_row.target == base
    assert anchor_row.writable


def test_clone_of_partial_range(table):
    """Figure 6: medium 15 exposes part of 12 (offset 2000) at 0."""
    base = table.create_medium(4000)
    clone = table.clone(base, start=2000, end=3000)
    row = table.ranges_of(clone)[0]
    assert (row.start, row.end) == (0, 1000)
    assert row.target == base
    assert row.target_offset == 2000
    assert row.writable
    assert not table.is_writable(base)  # cloning froze the source


def test_clone_validates_range(table):
    base = table.create_medium(1000)
    with pytest.raises(SnapshotError):
        table.clone(base, start=500, end=2000)
    with pytest.raises(SnapshotError):
        table.clone(base, start=800, end=800)


def test_range_covering(table):
    base = table.create_medium(4000)
    assert table.range_covering(base, 0).medium_id == base
    assert table.range_covering(base, 3999) is not None
    assert table.range_covering(base, 4000) is None
    assert table.range_covering(999, 0) is None


def test_resolve_chain_walks_to_base(table):
    base = table.create_medium(4000)
    snapshot, _anchor = table.snapshot(base)
    clone = table.clone(snapshot)
    probes = resolve_chain(table, clone, 1234)
    assert probes == [(clone, 1234), (snapshot, 1234), (base, 1234)]
    assert chain_depth(table, clone, 1234) == 3


def test_resolve_chain_applies_offsets(table):
    base = table.create_medium(4000)
    clone = table.clone(base, start=2000, end=3000)
    probes = resolve_chain(table, clone, 500)
    assert probes == [(clone, 500), (base, 2500)]


def test_figure6_composite_medium(table):
    """Reproduce the paper's medium 22 exactly."""
    for medium in (12, 20, 21):
        table.define_range(medium, 0, 4000, MEDIUM_NONE, 0, STATUS_RO)
    table.define_range(22, 0, 500, 21, 0, STATUS_RW)
    table.define_range(22, 500, 1000, 12, 2500, STATUS_RW)
    table.define_range(22, 1000, 2000, MEDIUM_NONE, 0, STATUS_RW)
    # Blocks 0-499 delegate to 21.
    assert resolve_chain(table, 22, 100) == [(22, 100), (21, 100)]
    # Blocks 500-999 shortcut straight to 12 at offset 2500.
    assert resolve_chain(table, 22, 700) == [(22, 700), (12, 2700)]
    # Blocks 1000+ are the medium's own data.
    assert resolve_chain(table, 22, 1500) == [(22, 1500)]


def test_retarget_range_shortcuts_chain(table):
    base = table.create_medium(1000)
    snapshot, _ = table.snapshot(base)
    clone = table.clone(snapshot)
    assert chain_depth(table, clone, 10) == 3
    row = table.ranges_of(clone)[0]
    table.retarget_range(row, base, 0)
    assert chain_depth(table, clone, 10) == 2


def test_drop_medium_elides_all_rows(table):
    base = table.create_medium(1000)
    doomed = table.clone(base)
    table.drop_medium(doomed)
    assert not table.exists(doomed)
    assert table.exists(base)
    # One elide record covers the whole medium.
    assert table.relation.elide_table.record_count == 1


def test_dropping_contiguous_mediums_coalesces(table):
    mediums = [table.create_medium(100) for _ in range(50)]
    for medium in mediums:
        table.drop_medium(medium)
    assert table.relation.elide_table.record_count == 1


def test_resolve_chain_detects_cycles(table):
    table.define_range(50, 0, 100, 51, 0, STATUS_RW)
    table.define_range(51, 0, 100, 50, 0, STATUS_RW)
    with pytest.raises(SnapshotError):
        resolve_chain(table, 50, 10)


def test_all_medium_ids(table):
    a = table.create_medium(10)
    b = table.create_medium(10)
    table.drop_medium(a)
    assert table.all_medium_ids() == [b]


def test_gap_in_composite_medium_resolves_to_none(table):
    table.define_range(30, 0, 100, MEDIUM_NONE, 0, STATUS_RW)
    table.define_range(30, 200, 300, MEDIUM_NONE, 0, STATUS_RW)
    assert table.range_covering(30, 150) is None
    probes = resolve_chain(table, 30, 150)
    assert probes == [(30, 150)]


def test_ranges_are_read_from_the_index_once_per_change(table, monkeypatch):
    base = table.create_medium(4000)
    scans = []
    scan = table.relation.scan

    def counting(*args, **kwargs):
        scans.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(table.relation, "scan", counting)
    rows = table.ranges_of(base)
    assert table.ranges_of(base) is rows
    assert table.range_covering(base, 3999) is rows[0]
    assert table.size_of(base) == 4000 and table.is_writable(base)
    assert chain_depth(table, base, 10) == 1
    assert len(scans) == 1
    snapshot, _anchor = table.snapshot(base)  # freezes base: a change
    assert not table.is_writable(base)
    assert table.ranges_of(snapshot)[0].target == base
    table.drop_medium(snapshot)
    assert table.range_covering(snapshot, 0) is None
