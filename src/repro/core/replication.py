"""Asynchronous off-site replication.

Purity arrays include replication ports and ship volumes to a second
array without pausing service. The replicator here is snapshot-based:
each cycle snapshots the source volume, ships the delta since the last
replicated snapshot (full content on the first cycle), and applies it
to the target array through :func:`ship_chunk`, which the cluster's
refresh copy uses too. The target's own dedup/compression pipeline
reduces the shipped bytes again on arrival.
"""

from dataclasses import dataclass
from operator import itemgetter

from repro.core import tables as T
from repro.errors import ReplicationError, VolumeNotFoundError
from repro.units import KIB, MIB

#: The replication link: bandwidth in bytes per sim second and the
#: latency each shipped chunk pays.
LINK_BANDWIDTH = 100 * MIB
LINK_LATENCY = 0.03
#: Bytes read from the snapshot and shipped per step (sector aligned).
CHUNK_SIZE = 64 * KIB


def ship_chunk(source, medium_id, target, volume, offset, length,
               fresh=False):
    """Copy one chunk of ``source``'s ``medium_id`` onto ``target``'s
    ``volume`` at the same offset: the one cross-array copy path.
    Returns whether the chunk went on the wire as data.

    The read skips the source's ``io.read`` histogram and rebuild
    governor: a copy is background work. A zero chunk becomes an
    ``unmap``, since a zero-write or an unmap on the source must reach
    the target too, unless the target volume is ``fresh`` and so reads
    as zeroes already. A crashed ``source`` is refused as its façade
    refuses a read: its datapath still holds the dead controller's
    memory.
    """
    source._check_alive()
    data, _latency = source.datapath.read(medium_id, offset, length)
    if any(data):
        target.write(volume, offset, data, advance_clock=False)
        return True
    if not fresh:
        target.unmap(volume, offset, length)
    return False


@dataclass
class ReplicationCycle:
    """Accounting for one replication round of one volume."""

    volume: str
    snapshot_name: str
    bytes_examined: int = 0
    bytes_shipped: int = 0
    chunks_shipped: int = 0
    link_seconds: float = 0.0


class AsyncReplicator:
    """Ships volumes from a source array to a target array."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        self._last_snapshot = {}  # volume -> (snapshot_name, seqno mark)
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
        the ranges a client changed since the previous cycle's mark.
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
            ranges = self._changed_ranges(snap_medium, previous[1], size)
        for start, end in ranges:
            for cursor in range(start, end, CHUNK_SIZE):
                length = min(CHUNK_SIZE, end - cursor)
                cycle.bytes_examined += length
                if ship_chunk(self.source, snap_medium, self.target, volume,
                              cursor, length, fresh=created):
                    cycle.bytes_shipped += length
                    cycle.chunks_shipped += 1
                    cycle.link_seconds += (LINK_LATENCY
                                           + length / LINK_BANDWIDTH)
        if previous is not None:
            self.source.destroy_snapshot(volume, previous[0])
        self._last_snapshot[volume] = (snapshot_name, seq_mark_now)
        self.cycles.append(cycle)
        return cycle

    def _changed_ranges(self, snap_medium, seq_mark, size):
        """The [start, end) ranges a client changed since ``seq_mark``.

        The read planner names the piece that supplies each byte of the
        snapshot, holes included, and a piece changed if its rank (the
        seqno of the client operation that supplied it) is past the
        mark. GC, remainders and dedup keep ranks, so bytes that only
        moved are not shipped again.
        """
        pieces = []
        self.source.datapath._plan(snap_medium, [(0, size)], 0, 0, pieces,
                                   holes=True)
        ranges = []
        for at, fact, _inner, nbytes in sorted(pieces, key=itemgetter(0)):
            if T.extent_rank(fact.value) <= seq_mark:
                continue
            if ranges and ranges[-1][1] == at:
                ranges[-1][1] += nbytes
            else:
                ranges.append([at, at + nbytes])
        return ranges

    def total_bytes_shipped(self):
        return sum(cycle.bytes_shipped for cycle in self.cycles)
