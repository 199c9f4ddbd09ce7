"""The medium table.

Each row maps a range of one medium onto either nothing (the medium
holds its own data for that range, found via the address map) or an
underlying <medium, offset>, exactly as in the paper's Figure 6:

    Source Medium  Start:End  Target Medium  Offset  Status
    12             0:3999     none                   RO
    14             0:3999     12             0       RO     (snapshot)
    15             0:999      12             2000    RW     (clone of part)

Rows are immutable facts in a relation keyed (medium_id, start); a
range is rewritten by inserting a newer fact with the same key.
Dropping a medium inserts one elide record for its key prefix — the
motivating example for elision.
"""

from dataclasses import dataclass

from repro.errors import SnapshotError

#: Sentinel target for "this medium holds its own data here".
MEDIUM_NONE = -1

STATUS_RW = 0
STATUS_RO = 1


@dataclass(frozen=True)
class MediumRange:
    """One decoded medium-table row."""

    medium_id: int
    start: int
    end: int
    target: int
    target_offset: int
    status: int

    @property
    def length(self):
        return self.end - self.start

    @property
    def writable(self):
        return self.status == STATUS_RW

    def maps_directly(self):
        """True when this range holds its own data (no delegation)."""
        return self.target == MEDIUM_NONE


class MediumTable:
    """Operations over the medium relation.

    ``inserter(key, value)`` persists one fact (the commit pipeline
    provides sequence numbers and WAL ordering); the table itself only
    decides *what* facts to write.
    """

    def __init__(self, relation, inserter, first_medium_id=1, on_allocate=None,
                 elider=None):
        self.relation = relation
        self._insert = inserter
        self._next_medium_id = first_medium_id
        self._on_allocate = on_allocate
        # How drop_medium deletes: the default elides in-memory only;
        # the array wires a durable (WAL-backed) elider.
        self._elide_prefix = elider or (
            lambda prefix: self.relation.elide_prefix(prefix)
        )
        #: medium id -> its decoded rows, until the relation next changes.
        self._ranges = relation.memo("ranges_of")

    def set_next_medium_id(self, next_id):
        """Continue numbering after recovery."""
        self._next_medium_id = max(self._next_medium_id, next_id)

    def _allocate_id(self):
        medium_id = self._next_medium_id
        self._next_medium_id += 1
        if self._on_allocate is not None:
            self._on_allocate(medium_id)
        return medium_id

    def _write_range(self, medium_id, start, end, target, target_offset, status):
        if start < 0 or end <= start:
            raise ValueError("bad medium range [%d, %d)" % (start, end))
        self._insert(
            (medium_id, start), (end, target, target_offset, status)
        )

    def _decode(self, fact):
        medium_id, start = fact.key
        end, target, target_offset, status = fact.value
        return MediumRange(medium_id, start, end, target, target_offset, status)

    def create_medium(self, size):
        """A fresh writable medium holding its own (empty) data."""
        medium_id = self._allocate_id()
        self._write_range(medium_id, 0, size, MEDIUM_NONE, 0, STATUS_RW)
        return medium_id

    def ranges_of(self, medium_id):
        """All current ranges of one medium, by start offset (a tuple).

        Read from the index once per change to the medium relation: a
        read walks its volume's chain through this on every I/O.
        """
        rows = self._ranges.get(medium_id)
        if rows is None:
            facts = self.relation.scan((medium_id, 0), (medium_id, 2 ** 62))
            rows = self._ranges[medium_id] = tuple(
                self._decode(fact) for fact in facts
            )
        return rows

    def exists(self, medium_id):
        """True when the medium has any live range rows."""
        return bool(self.ranges_of(medium_id))

    def size_of(self, medium_id):
        """Logical size: the end of the medium's last range."""
        ranges = self.ranges_of(medium_id)
        if not ranges:
            raise SnapshotError("medium %d does not exist" % medium_id)
        return max(r.end for r in ranges)

    def range_covering(self, medium_id, offset):
        """The range row covering ``offset``, or None for a gap."""
        covering = None
        for row in self.ranges_of(medium_id):
            if row.start > offset:
                break
            covering = row
        if covering is None or offset >= covering.end:
            return None
        return covering

    def freeze(self, medium_id):
        """Make every range of a medium read-only."""
        for row in self.ranges_of(medium_id):
            if row.status != STATUS_RO:
                self._write_range(
                    row.medium_id, row.start, row.end, row.target,
                    row.target_offset, STATUS_RO,
                )

    def is_writable(self, medium_id):
        """True when any range of the medium accepts writes."""
        return any(row.writable for row in self.ranges_of(medium_id))

    def snapshot(self, medium_id):
        """Freeze ``medium_id``; returns (snapshot_medium, new_write_medium).

        The snapshot medium and the volume's replacement anchor both
        delegate to the frozen base, so neither costs data movement.
        """
        size = self.size_of(medium_id)
        self.freeze(medium_id)
        snapshot_id = self._allocate_id()
        self._write_range(snapshot_id, 0, size, medium_id, 0, STATUS_RO)
        new_anchor = self._allocate_id()
        self._write_range(new_anchor, 0, size, medium_id, 0, STATUS_RW)
        return snapshot_id, new_anchor

    def clone(self, medium_id, start=0, end=None):
        """A writable medium exposing [start, end) of ``medium_id`` at 0.

        The source range must be stable, so the source medium is frozen
        first (cloning a live volume goes through snapshot()).
        """
        size = self.size_of(medium_id)
        if end is None:
            end = size
        if not 0 <= start < end <= size:
            raise SnapshotError(
                "clone range [%d, %d) outside medium of size %d"
                % (start, end, size)
            )
        self.freeze(medium_id)
        clone_id = self._allocate_id()
        self._write_range(clone_id, 0, end - start, medium_id, start, STATUS_RW)
        return clone_id

    def define_range(self, medium_id, start, end, target, target_offset, status):
        """Write one range row directly (building composite mediums).

        Callers are responsible for keeping a medium's ranges disjoint;
        normal snapshot/clone flows never need this, but composite
        layouts like the paper's medium 22 (three ranges with different
        targets) are built from it.
        """
        self._write_range(medium_id, start, end, target, target_offset, status)
        self._next_medium_id = max(self._next_medium_id, medium_id + 1)

    def retarget_range(self, row, target, target_offset):
        """GC path compression: point a range directly at a deeper medium."""
        self._write_range(
            row.medium_id, row.start, row.end, target, target_offset, row.status
        )

    def drop_medium(self, medium_id):
        """Atomically delete a medium's rows via one elide record."""
        self._elide_prefix((medium_id,))

    def all_medium_ids(self):
        """Every live medium id."""
        return sorted({fact.key[0] for fact in self.relation.scan()})
