"""A healthy shelf reads each chunk once — counted, no wall clock.

``test_hedge.py::test_fault_free_run_never_hedges`` reads after a
``drain`` and never overlaps a flush. Here the client keeps writing and
queues reads behind its writes without draining, so hundreds of device
reads collide with the array's own program windows and stall by design
(Section 4.4). None of that is evidence against a drive: no drive may
turn suspect, and once the drives are idle every chunk costs exactly
one device read, with no hedge and no reconstruction.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.health import STALL_SUSPECT_THRESHOLD
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB
from repro.workloads.datagen import DataGenerator

from tests.degrade.conftest import device_reads, spy_on_hedges

IO_SIZE = 8 * KIB
WRITES = 256
#: One burst of queued reads (issued at one sim instant) per this many
#: back-to-back writes: acks take tens of microseconds, a staggered
#: flush milliseconds, so reads land inside open program windows. The
#: client's reads alone must make the scenario bite: inline dedup skips
#: the cblock fetch of an anchor its hashes rule out, so the write path
#: adds few device reads of its own.
WRITES_PER_BURST = 8
READS_PER_BURST = 24
READ_BACK = 64


def _config(seed=0):
    return ArrayConfig.small(seed=seed, cblock_cache_entries=16)


def single_array():
    array = PurityArray.create(_config())
    return array, [array], array.clock.advance


def two_member_cluster():
    cluster = Cluster(
        ClusterConfig(num_arrays=2, replication=2),
        array_configs=[_config(seed) for seed in range(2)],
    )
    members = [node.array for node in cluster.nodes.values()]
    return cluster, members, cluster.advance


def spy_on_chunks(array, chunks):
    """Count the chunks ``split_payload_range`` yields per payload read."""
    reader = array.segreader
    read_payload = reader.read_payload

    def spy(descriptor, payload_offset, length):
        chunks.append(sum(
            1 for _chunk in reader.geometry.split_payload_range(
                payload_offset, length
            )
        ))
        return read_payload(descriptor, payload_offset, length)

    reader.read_payload = spy


@pytest.mark.parametrize("build", [single_array, two_member_cluster])
def test_fault_free_mixed_run_stays_unsuspected_and_reads_each_chunk_once(
        build):
    backend, members, advance = build()
    volumes = ["vol0", "vol1"]
    for volume in volumes:
        backend.create_volume(volume, 2 * MIB)
    outcomes = []
    for array in members:
        spy_on_hedges(array, outcomes)

    # Database-like pages: inline dedup still verifies the candidates
    # its hashes cannot rule out by reading earlier cblocks from inside
    # the write path, so a few of the array's own reads collide with its
    # flushes too.
    data = DataGenerator("rdbms", RandomStream(42).fork("data"))
    pick = RandomStream(43)
    written = []
    for index in range(WRITES):
        volume = volumes[index % len(volumes)]
        offset = (index // len(volumes)) * IO_SIZE
        payload = bytes(data.buffer(IO_SIZE))
        backend.write(volume, offset, payload)
        written.append((volume, offset, payload))
        if index % WRITES_PER_BURST == WRITES_PER_BURST - 1:
            for _read in range(READS_PER_BURST):
                volume, offset, payload = written[
                    pick.randint(0, len(written) - 1)
                ]
                got, _latency = backend.read(
                    volume, offset, IO_SIZE, advance_clock=False
                )
                assert got == payload

    for array in members:
        threshold = STALL_SUSPECT_THRESHOLD
        stalled = sum(
            drive.counters.stalled_reads for drive in array.drives.values()
        )
        assert stalled >= 10 * threshold  # the scenario bites
        assert array.health.suspects() == []
        for name in array.drives:
            assert array.health.stall_pressure(name) == 0
        hedge = array.segreader.hedge
        assert hedge.won + hedge.lost == hedge.fired
    # Hedges on *predicted wait* may still fire under this queue
    # pressure; what each cost is what its losing arm really read.
    assert len(outcomes) == sum(a.segreader.hedge.fired for a in members)
    for reads, won, wasted in outcomes:
        assert wasted == (1 if won else reads - 1)
    assert sum(wasted for _r, _w, wasted in outcomes) == sum(
        array.segreader.hedge.wasted for array in members
    )

    # Idle drives, cold caches: one device read per chunk, nothing else.
    while any(drive.queue_depth() for array in members
              for drive in array.drives.values()):
        advance(0.001)
    chunks = []
    for array in members:
        array.datapath.drop_caches()
        spy_on_chunks(array, chunks)
    reads_before = device_reads(members)
    fired_before = [a.segreader.hedge.fired for a in members]
    reconstructed_before = [a.segreader.reconstructed_reads for a in members]
    for volume, offset, payload in written[:READ_BACK]:
        got, _latency = backend.read(volume, offset, IO_SIZE)
        assert got == payload
    assert chunks
    assert device_reads(members) - reads_before == sum(chunks)
    assert [a.segreader.hedge.fired for a in members] == fired_before
    assert [
        a.segreader.reconstructed_reads for a in members
    ] == reconstructed_before
