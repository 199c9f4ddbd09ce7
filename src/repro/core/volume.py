"""Volumes, snapshots, and clones.

Purity exports virtual block devices ("volumes") addressed by
<volume, offset>; internally every volume is just a pointer to its
current *anchor medium*. Snapshots freeze the anchor and move the
volume onto a fresh child medium; clones are writable mediums layered
over a snapshot. All of it is medium-table bookkeeping — no data moves.
"""

from repro.core import tables as T
from repro.errors import (
    SnapshotError,
    VolumeError,
    VolumeExistsError,
    VolumeNotFoundError,
)
from repro.units import MAX_CBLOCK, SECTOR

VOLUME_LIVE = 0

#: Hole extents are chunked so no extent exceeds the read path's
#: overlap-scan window.
_HOLE_CHUNK = MAX_CBLOCK


class VolumeManager:
    """The volume and snapshot catalog over the medium table."""

    def __init__(self, pipeline, medium_table, datapath):
        self.pipeline = pipeline
        self.medium_table = medium_table
        self.datapath = datapath
        self.tables = pipeline.tables

    # ------------------------------------------------------------------
    # Catalog lookups

    def _volume_fact(self, name):
        fact = self.tables.volumes.get((name,))
        if fact is None:
            raise VolumeNotFoundError("no volume named %r" % name)
        return fact

    def volume_names(self):
        """All live volume names."""
        return sorted(fact.key[0] for fact in self.tables.volumes.scan())

    def volume_size(self, name):
        return self._volume_fact(name).value[0]

    def anchor_medium(self, name):
        """The medium a volume's writes currently land in."""
        return self._volume_fact(name).value[1]

    def provisioned_bytes(self):
        """Sum of live volume sizes (thin-provisioning numerator)."""
        return sum(fact.value[0] for fact in self.tables.volumes.scan())

    def snapshot_names(self, volume_name):
        lo = (volume_name, "")
        hi = (volume_name, "￿")
        return sorted(fact.key[1] for fact in self.tables.snapshots.scan(lo, hi))

    def _snapshot_fact(self, volume_name, snapshot_name):
        fact = self.tables.snapshots.get((volume_name, snapshot_name))
        if fact is None:
            raise SnapshotError(
                "volume %r has no snapshot %r" % (volume_name, snapshot_name)
            )
        return fact

    # ------------------------------------------------------------------
    # Volume lifecycle

    def create_volume(self, name, size):
        """Provision a volume; space is consumed only as data is written."""
        if size <= 0 or size % SECTOR:
            raise VolumeError("volume size must be a positive sector multiple")
        if self.tables.volumes.get((name,)) is not None:
            raise VolumeExistsError("volume %r already exists" % name)
        medium_id = self.medium_table.create_medium(size)
        self.pipeline.set_medium_id_hint(medium_id + 1)
        self.pipeline.insert_meta(T.VOLUMES, (name,), (size, medium_id, VOLUME_LIVE))
        return medium_id

    def destroy_volume(self, name):
        """Delete a volume: one elide per catalog, one per medium.

        Mediums shared with snapshots or clones survive; the medium
        liveness sweep in the garbage collector reclaims them when the
        last referencing snapshot goes away.
        """
        fact = self._volume_fact(name)
        anchor = fact.value[1]
        # Sequence-bounded so a later volume of the same name survives.
        self.pipeline.elide_prefix(T.VOLUMES, (name,), bound_now=True)
        self.medium_table.drop_medium(anchor)
        self.pipeline.elide_prefix(T.ADDRESS_MAP, (anchor,))

    def destroy_snapshot(self, volume_name, snapshot_name):
        """Delete a snapshot's catalog entry.

        The snapshot's medium is *not* dropped here — clones may still
        delegate to it. The garbage collector's medium sweep reclaims it
        (and its address-map extents) once nothing references it.
        """
        self._snapshot_fact(volume_name, snapshot_name)  # existence check
        self.pipeline.elide_prefix(
            T.SNAPSHOTS, (volume_name, snapshot_name), bound_now=True
        )

    # ------------------------------------------------------------------
    # I/O

    def _anchor_for_io(self, name, offset, length):
        """The anchor medium of an I/O on ``name``, its range checked."""
        size, medium_id, _status = self._volume_fact(name).value
        if offset < 0 or offset + length > size:
            raise VolumeError(
                "range [%d, %d) outside volume %r of size %d"
                % (offset, offset + length, name, size)
            )
        return medium_id

    def write(self, name, offset, data):
        """Write to a volume; returns commit latency."""
        medium_id = self._anchor_for_io(name, offset, len(data))
        return self.datapath.write(medium_id, offset, data)

    def read(self, name, offset, length):
        """Read from a volume; returns (bytes, latency)."""
        medium_id = self._anchor_for_io(name, offset, length)
        return self.datapath.read(medium_id, offset, length)

    def unmap(self, name, offset, length):
        """Punch a zero hole (SCSI UNMAP): insert hole extents.

        A hole is an address-map fact like any other, so one landing on
        the key of a longer extent would replace it and zero the rest of
        it too: the datapath keeps that rest as references into the
        cblock the extent already points at, and those entries commit in
        the holes' own WAL record, so a crash leaves both or neither.
        The degradation ladder gates an unmap as it gates a write.
        """
        if offset % SECTOR or length % SECTOR or length <= 0:
            raise VolumeError("unmap must cover whole sectors")
        medium_id = self._anchor_for_io(name, offset, length)
        degrade = self.datapath.degrade
        if degrade is not None:
            degrade.check_writable()
        holes = []
        rank = self.pipeline.sequence.next()
        cursor = offset
        while cursor < offset + length:
            chunk = min(_HOLE_CHUNK, offset + length - cursor)
            holes.append(((medium_id, cursor), T.extent_hole(chunk, rank)))
            cursor += chunk
        remainders = self.datapath.remainder_entries(
            medium_id, offset, length, [key[1] for key, _value in holes]
        )
        self.pipeline.insert_meta_batch(T.ADDRESS_MAP, remainders + holes)
        if degrade is not None and degrade.write_through:
            # As for a write: a torn NVRAM mirror cannot back the record.
            self.pipeline.drain()
            degrade.note_write_through_drain()

    # ------------------------------------------------------------------
    # Snapshots and clones

    def snapshot(self, volume_name, snapshot_name):
        """Point-in-time image; the volume continues on a fresh medium."""
        fact = self._volume_fact(volume_name)
        size, anchor, _status = fact.value
        if self.tables.snapshots.get((volume_name, snapshot_name)) is not None:
            raise SnapshotError(
                "volume %r already has snapshot %r" % (volume_name, snapshot_name)
            )
        snap_medium, new_anchor = self.medium_table.snapshot(anchor)
        self.pipeline.set_medium_id_hint(new_anchor + 1)
        self.pipeline.insert_meta(
            T.SNAPSHOTS, (volume_name, snapshot_name), (snap_medium, size)
        )
        self.pipeline.insert_meta(
            T.VOLUMES, (volume_name,), (size, new_anchor, VOLUME_LIVE)
        )
        return snap_medium

    def clone_from_snapshot(self, volume_name, snapshot_name, new_volume_name):
        """A writable volume backed by a snapshot (instant, no copy)."""
        if self.tables.volumes.get((new_volume_name,)) is not None:
            raise VolumeExistsError("volume %r already exists" % new_volume_name)
        fact = self._snapshot_fact(volume_name, snapshot_name)
        snap_medium, size = fact.value
        clone_medium = self.medium_table.clone(snap_medium)
        self.pipeline.set_medium_id_hint(clone_medium + 1)
        self.pipeline.insert_meta(
            T.VOLUMES, (new_volume_name,), (size, clone_medium, VOLUME_LIVE)
        )
        return clone_medium

    def clone_volume(self, volume_name, new_volume_name):
        """Clone a live volume via an internal snapshot."""
        internal = "__clone_base_%s_%s" % (volume_name, new_volume_name)
        self.snapshot(volume_name, internal)
        return self.clone_from_snapshot(volume_name, internal, new_volume_name)

    # ------------------------------------------------------------------
    # Liveness roots (for the GC's medium sweep)

    def referenced_mediums(self):
        """Root mediums: volume anchors and snapshot mediums."""
        roots = set()
        for fact in self.tables.volumes.scan():
            roots.add(fact.value[1])
        for fact in self.tables.snapshots.scan():
            roots.add(fact.value[0])
        return roots
