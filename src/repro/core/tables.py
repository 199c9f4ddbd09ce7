"""The standard metadata relations of a Purity array.

Section 4.8 names the important tables: the medium table, the segment
table, deduplication/link bookkeeping, and (here) the volume and
snapshot catalogs. Each is a :class:`~repro.pyramid.relation.Relation`
of immutable facts; this module fixes their names, key shapes, and
value layouts so the data path, recovery, and garbage collector agree.

Address-map values are tagged tuples:

* direct extent:  (EXTENT_DIRECT, segment_id, payload_offset,
  stored_length, logical_length)
* dedup reference: (EXTENT_DEDUP, segment_id, payload_offset,
  stored_length, logical_length, sector_skew) — points into another
  extent's cblock, ``sector_skew`` sectors in; made by inline dedup or
  by a displaced extent's remainder.
* hole: (EXTENT_HOLE, logical_length) — an overwrite that explicitly
  zeroes a range (volume truncation, unmap).
"""

from repro.pyramid.relation import Relation

EXTENT_DIRECT = 0
EXTENT_DEDUP = 1
EXTENT_HOLE = 2

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

    def __init__(self, fanout=8):
        self.relations = {
            # (medium_id, byte_offset) -> extent value
            ADDRESS_MAP: Relation(ADDRESS_MAP, key_arity=2, fanout=fanout),
            # (medium_id, start) -> (end, target, target_offset, status)
            MEDIUMS: Relation(MEDIUMS, key_arity=2, fanout=fanout),
            # (segment_id,) -> (placements_flat..., ) as a nested tuple
            SEGMENTS: Relation(SEGMENTS, key_arity=1, fanout=fanout),
            # (volume_name,) -> (size, anchor_medium, status)
            VOLUMES: Relation(VOLUMES, key_arity=1, fanout=fanout),
            # (volume_name, snapshot_name) -> (medium_id, size)
            SNAPSHOTS: Relation(SNAPSHOTS, key_arity=2, fanout=fanout),
            # (target_relation_name, predicate_spec) -> ()
            ELIDES: Relation(ELIDES, key_arity=2, fanout=fanout),
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
