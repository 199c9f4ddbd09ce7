"""The standard metadata relations of a Purity array.

Section 4.8 names the important tables: the medium table, the segment
table, deduplication/link bookkeeping, and (here) the volume and
snapshot catalogs. Each is a :class:`~repro.pyramid.relation.Relation`
of immutable facts; this module fixes their names, key shapes, and
value layouts so the data path, recovery, and garbage collector agree.

Address-map values take two forms, built and read only here:

* reference: (EXTENT_REF, segment_id, payload_offset, stored_length,
  cblock_length, skew_sectors, length, rank) — ``length`` bytes of a
  stored cblock from ``skew_sectors`` in; a direct extent is all of it.
* hole: (EXTENT_HOLE, length, rank) — explicit zeroes (unmap).

``rank``, the seqno of the client operation that supplied the bytes,
orders a medium's overlapping extents. A value keeps it wherever a
background path moves it, so none can reorder what a read returns.
"""

import operator

from repro.pyramid.relation import Relation
from repro.units import SECTOR

EXTENT_REF = 0
EXTENT_HOLE = 2


def extent_ref(segment_id, payload_offset, stored_length, cblock_length,
               skew_sectors, length, rank):
    return (EXTENT_REF, segment_id, payload_offset, stored_length,
            cblock_length, skew_sectors, length, rank)


def extent_hole(length, rank):
    return (EXTENT_HOLE, length, rank)


#: Readers; both forms end in (length, rank).
extent_length = operator.itemgetter(-2)
extent_rank = operator.itemgetter(-1)
#: (segment_id, payload_offset, stored_length) of a reference's cblock.
extent_location = operator.itemgetter(1, 2, 3)
extent_cblock_length = operator.itemgetter(4)


def is_hole(value):
    return value[0] == EXTENT_HOLE


def is_direct(value):
    return value[0] == EXTENT_REF and value[5] == 0 and value[6] == value[4]


def extent_skew(value):
    """Bytes into its cblock where the extent starts (0 for a hole)."""
    return 0 if value[0] == EXTENT_HOLE else value[5] * SECTOR


def relocated(value, segment_id, payload_offset):
    return (value[0], segment_id, payload_offset) + value[3:]


def trimmed(value, skew, length):
    """``length`` bytes of the extent from ``skew`` bytes into its
    cblock, at its rank."""
    if value[0] == EXTENT_HOLE:
        return extent_hole(length, value[-1])
    return value[:5] + (skew // SECTOR, length, value[-1])


#: Relation names are stable identifiers used in WAL records and
#: boot-region patch pointers.
ADDRESS_MAP = "address_map"
MEDIUMS = "mediums"
SEGMENTS = "segments"
VOLUMES = "volumes"
SNAPSHOTS = "snapshots"
#: Persisted elide records: deletion predicates are themselves
#: immutable facts (Section 4.10), so deletions survive crashes.
ELIDES = "__elides"
RAW_WRITES = "__raw_writes"


class TableSet:
    """All relations of one array, keyed by name."""

    def __init__(self):
        self.relations = {
            # (medium_id, byte_offset) -> extent value
            ADDRESS_MAP: Relation(ADDRESS_MAP, key_arity=2),
            # (medium_id, start) -> (end, target, target_offset, status)
            MEDIUMS: Relation(MEDIUMS, key_arity=2),
            # (segment_id,) -> (placements_flat..., ) as a nested tuple
            SEGMENTS: Relation(SEGMENTS, key_arity=1),
            # (volume_name,) -> (size, anchor_medium, status)
            VOLUMES: Relation(VOLUMES, key_arity=1),
            # (volume_name, snapshot_name) -> (medium_id, size)
            SNAPSHOTS: Relation(SNAPSHOTS, key_arity=2),
            # (target_relation_name, predicate_spec) -> ()
            ELIDES: Relation(ELIDES, key_arity=2),
        }

    def __getitem__(self, name):
        return self.relations[name]

    def __iter__(self):
        return iter(self.relations.values())

    def names(self):
        return list(self.relations)

    @property
    def address_map(self):
        return self.relations[ADDRESS_MAP]

    @property
    def mediums(self):
        return self.relations[MEDIUMS]

    @property
    def segments(self):
        return self.relations[SEGMENTS]

    @property
    def volumes(self):
        return self.relations[VOLUMES]

    @property
    def snapshots(self):
        return self.relations[SNAPSHOTS]

    def max_seqno(self):
        """Highest sequence number stored anywhere (for recovery)."""
        highest = 0
        for relation in self:
            for patch in relation.pyramid.patches:
                highest = max(highest, patch.max_seq)
            memtable = relation.pyramid.memtable
            if memtable.max_seq is not None:
                highest = max(highest, memtable.max_seq)
        return highest
