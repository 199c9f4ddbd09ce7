"""Asynchronous off-site replication.

Purity arrays include replication ports and ship volumes to a second
array without pausing service. The replicator here is snapshot-based:
each cycle snapshots the source volume, ships the delta since the last
replicated snapshot (full content on the first cycle), and applies it
to the target array. A zero chunk travels as an ``unmap``, not as
data, and is skipped outright on a target volume created this cycle;
the target's own dedup/compression pipeline reduces the shipped bytes
again on arrival.
"""

from dataclasses import dataclass, field

from repro.core import tables as T
from repro.errors import ReplicationError, VolumeNotFoundError
from repro.units import KIB, MIB

#: The replication link: bandwidth in bytes per sim second and the
#: latency each shipped chunk pays.
LINK_BANDWIDTH = 100 * MIB
LINK_LATENCY = 0.03
#: Bytes read from the snapshot and shipped per step (sector aligned).
CHUNK_SIZE = 64 * KIB


@dataclass
class ReplicationCycle:
    """Accounting for one replication round of one volume."""

    volume: str
    snapshot_name: str
    bytes_examined: int = 0
    bytes_shipped: int = 0
    chunks_shipped: int = 0
    link_seconds: float = 0.0
    extra: dict = field(default_factory=dict)


class AsyncReplicator:
    """Ships volumes from a source array to a target array."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self._last_snapshot = {}  # volume -> (snapshot_name, medium, seqno mark)
        self._cycle_counter = 0
        self.cycles = []

    def _ensure_target_volume(self, volume):
        """Create ``volume`` on the target if it is missing; returns
        whether it was created (and so still reads as all zeroes)."""
        size = self.source.volumes.volume_size(volume)
        try:
            target_size = self.target.volumes.volume_size(volume)
        except VolumeNotFoundError:
            self.target.create_volume(volume, size)
            return True
        if target_size != size:
            raise ReplicationError(
                "target volume %r is %d bytes, source is %d"
                % (volume, target_size, size)
            )
        return False

    def replicate(self, volume):
        """Run one replication cycle for ``volume``; returns the cycle.

        The first cycle ships the whole volume; later cycles ship only
        ranges whose address-map facts are newer than the previous
        cycle's sequence mark.
        """
        created = self._ensure_target_volume(volume)
        self._cycle_counter += 1
        snapshot_name = "__repl_%d" % self._cycle_counter
        seq_mark_now = self.source.pipeline.sequence.last_issued
        snap_medium = self.source.snapshot(volume, snapshot_name)
        cycle = ReplicationCycle(volume=volume, snapshot_name=snapshot_name)
        previous = self._last_snapshot.get(volume)
        size = self.source.volumes.volume_size(volume)
        if previous is None:
            ranges = [(0, size)]
        else:
            ranges = self._changed_ranges(snap_medium, previous[2], size)
        for start, length in ranges:
            self._ship_range(snap_medium, volume, start, length, cycle,
                             created)
        if previous is not None:
            self.source.destroy_snapshot(volume, previous[0])
        self._last_snapshot[volume] = (snapshot_name, snap_medium, seq_mark_now)
        self.cycles.append(cycle)
        return cycle

    def _changed_ranges(self, snap_medium, seq_mark, size):
        """Byte ranges written since the previous cycle's mark.

        Walks the snapshot's medium chain and collects extents newer
        than the mark, coalescing them into chunk-aligned ranges.
        """
        from repro.mediums.medium import MEDIUM_NONE
        from repro.metadata.rangecode import IntRangeSet

        table = self.source.medium_table
        address_map = self.source.tables.address_map
        changed = IntRangeSet()
        frontier = [(snap_medium, 0, 0, size)]
        seen = set()
        while frontier:
            medium_id, m_off, v_off, length = frontier.pop()
            if (medium_id, m_off, v_off) in seen:
                continue
            seen.add((medium_id, m_off, v_off))
            for row in table.ranges_of(medium_id):
                sub_start = max(m_off, row.start)
                sub_end = min(m_off + length, row.end)
                if sub_start >= sub_end or row.target == MEDIUM_NONE:
                    continue
                frontier.append(
                    (
                        row.target,
                        row.target_offset + (sub_start - row.start),
                        v_off + (sub_start - m_off),
                        sub_end - sub_start,
                    )
                )
            for fact in address_map.scan((medium_id, 0), (medium_id, 2 ** 62)):
                if fact.seqno <= seq_mark:
                    continue
                extent_offset = fact.key[1]
                lo = max(extent_offset, m_off)
                hi = min(extent_offset + T.extent_length(fact.value),
                         m_off + length)
                if lo < hi:
                    changed.add(v_off + (lo - m_off), v_off + (hi - m_off) - 1)
        return [(lo, hi - lo + 1) for lo, hi in changed]

    def _ship_range(self, snap_medium, volume, start, length, cycle,
                    created):
        """Ship one range chunk by chunk. A zero chunk becomes an unmap
        on the target, since a zero-write or an unmap on the source must
        reach it too, unless the target volume is fresh (``created``)
        and so reads as zeroes already."""
        cursor = start
        end = start + length
        while cursor < end:
            chunk_length = min(CHUNK_SIZE, end - cursor)
            data, _latency = self.source.datapath.read(
                snap_medium, cursor, chunk_length
            )
            cycle.bytes_examined += chunk_length
            if any(data):
                cycle.bytes_shipped += chunk_length
                cycle.chunks_shipped += 1
                cycle.link_seconds += (
                    LINK_LATENCY + chunk_length / LINK_BANDWIDTH
                )
                self.target.write(volume, cursor, data, advance_clock=False)
            elif not created:
                self.target.unmap(volume, cursor, chunk_length)
            cursor += chunk_length

    def total_bytes_shipped(self):
        return sum(cycle.bytes_shipped for cycle in self.cycles)
