"""MetadataManager behavior: membership, clean sets, refresh copies."""

import random

import pytest

from repro.cluster import ALIVE, DEAD, SUSPECT, Cluster, ClusterConfig
from repro.cluster.config import DEAD_AFTER, HEARTBEAT_INTERVAL, SUSPECT_AFTER
from repro.errors import DataLossError
from repro.units import KIB, MIB

from tests.cluster.conftest import RECORD_SIZE, RECORD_SLOTS, \
    VOLUME_SIZE, make_cluster


def _replica_bytes(cluster, node_id, volume):
    return cluster.nodes[node_id].array.read(
        volume, 0, VOLUME_SIZE, advance_clock=False
    )[0]


def test_heartbeat_silence_walks_alive_suspect_dead(cluster3):
    victim = sorted(cluster3.nodes)[0]
    cluster3.kill(victim)
    assert cluster3.mdm.status(victim) == ALIVE  # not yet noticed
    cluster3.advance(SUSPECT_AFTER + HEARTBEAT_INTERVAL)
    assert cluster3.mdm.status(victim) == SUSPECT
    cluster3.advance(DEAD_AFTER)
    assert cluster3.mdm.status(victim) == DEAD


def test_report_unreachable_suspects_immediately_and_dirties(cluster3):
    victim = cluster3.mdm.routing("vol0")[1]
    assert victim in cluster3.mdm.clean_replicas("vol0")
    cluster3.mdm.report_unreachable(victim)
    assert cluster3.mdm.status(victim) == SUSPECT
    assert victim not in cluster3.mdm.clean_replicas("vol0")


def test_dead_member_rejoins_dirty_and_is_refreshed_clean(cluster3):
    payload = b"p" * RECORD_SIZE
    cluster3.write("vol0", 0, payload)
    victim = cluster3.mdm.routing("vol0")[0]
    cluster3.kill(victim)
    cluster3.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    assert cluster3.mdm.status(victim) == DEAD
    # Writes the dead member missed are what make its copy stale.
    newer = b"q" * RECORD_SIZE
    cluster3.write("vol0", 0, newer)
    cluster3.revive(victim)
    assert cluster3.mdm.status(victim) == ALIVE
    cluster3.settle()
    # Once settled, every replica of every volume holds the same bytes.
    for volume in ["vol0"]:
        replicas = cluster3.mdm.routing(volume)
        contents = {_replica_bytes(cluster3, n, volume)
                    for n in replicas
                    if cluster3.nodes[n].alive}
        assert len(contents) == 1
    data, _lat = cluster3.read("vol0", 0, RECORD_SIZE)
    assert data == newer


def test_failover_promotes_a_clean_secondary(cluster3):
    payload = b"f" * RECORD_SIZE
    cluster3.write("vol0", 0, payload)
    old = cluster3.mdm.routing("vol0")
    cluster3.kill(old[0])
    cluster3.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    new = cluster3.mdm.routing("vol0")
    assert new[0] != old[0]
    assert old[0] not in new
    # The promoted primary already held the bytes: promotion is free.
    assert new[0] in old
    data, _lat = cluster3.read("vol0", 0, RECORD_SIZE)
    assert data == payload


def test_every_primary_is_clean_after_moves(cluster3):
    volumes = ["vol0"]
    cluster3.write("vol0", 0, b"c" * RECORD_SIZE)
    victim = cluster3.mdm.routing("vol0")[0]
    cluster3.kill(victim)
    cluster3.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    cluster3.settle()
    for volume in volumes:
        primary = cluster3.mdm.routing(volume)[0]
        assert primary in cluster3.mdm.clean_replicas(volume)


def test_losing_every_replica_is_detected_loss_never_wrong_bytes():
    cluster = make_cluster(2, seed=7)
    cluster.write("vol0", 0, b"x" * RECORD_SIZE)
    for node_id in sorted(cluster.nodes):
        cluster.kill(node_id)
        cluster.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    with pytest.raises(DataLossError):
        cluster.mdm.routing("vol0")
    with pytest.raises(DataLossError):
        cluster.read("vol0", 0, RECORD_SIZE)


def test_readded_replica_is_not_presumed_clean_regression():
    """Regression: a replica dropped from the set used to linger in the
    clean set, so a later re-add skipped its refresh copy and served
    bytes from before its absence. The full loop — drop, write, re-add
    — must end with the rejoined replica refreshed."""
    cluster = make_cluster(3, seed=13,
                           volumes=["vol%d" % i for i in range(4)])
    volumes = ["vol%d" % i for i in range(4)]
    for index, volume in enumerate(volumes):
        cluster.write(volume, 0, bytes([index + 1]) * RECORD_SIZE)
    victim = cluster.mdm.routing("vol0")[0]
    cluster.kill(victim)
    cluster.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    # Overwrite everything while the victim is out of every replica set.
    for index, volume in enumerate(volumes):
        cluster.write(volume, 0, bytes([index + 101]) * RECORD_SIZE)
    cluster.revive(victim)
    cluster.settle()
    for index, volume in enumerate(volumes):
        replicas = cluster.mdm.routing(volume)
        for node_id in replicas:
            assert _replica_bytes(cluster, node_id, volume)[:RECORD_SIZE] \
                == bytes([index + 101]) * RECORD_SIZE, (volume, node_id)


def test_refresh_copy_preserves_slots_the_client_overwrites_partially():
    """Regression (engine + copy interplay): a refresh copy streams the
    volume in large chunks; a client write at the start of a copied
    range must not orphan the copied bytes past the write."""
    cluster = make_cluster(3, seed=17)
    for slot in range(RECORD_SLOTS):
        cluster.write("vol0", slot * RECORD_SIZE,
                      bytes([slot + 1]) * RECORD_SIZE)
    victim = cluster.mdm.routing("vol0")[1]
    cluster.kill(victim)
    cluster.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    cluster.revive(victim)
    cluster.settle()  # refresh copy rewrites the whole volume per chunk
    cluster.write("vol0", 0, b"Z" * RECORD_SIZE)  # partial overwrite
    for slot in range(1, RECORD_SLOTS):
        data, _lat = cluster.read("vol0", slot * RECORD_SIZE, RECORD_SIZE)
        assert data == bytes([slot + 1]) * RECORD_SIZE, slot
    replicas = cluster.mdm.routing("vol0")
    contents = {_replica_bytes(cluster, n, "vol0") for n in replicas}
    assert len(contents) == 1


def test_epoch_advances_on_every_membership_change(cluster3):
    before = cluster3.mdm.epoch
    victim = sorted(cluster3.nodes)[2]
    cluster3.kill(victim)
    cluster3.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    after_death = cluster3.mdm.epoch
    assert after_death > before
    cluster3.revive(victim)
    cluster3.settle()
    assert cluster3.mdm.epoch > after_death
    # Live nodes carry the pushed epoch.
    for node_id, node in cluster3.nodes.items():
        if node.alive:
            assert node.epoch == cluster3.mdm.epoch


def _kill_mid_copy(side):
    """Kill one end of a refresh copy 20 ms (four chunks) into it, while
    the failure detector still has the victim alive, and revive it
    100 ms later. Regression: the copy used to read from a killed
    source or write to a killed destination and raise out of the event
    loop."""
    size = 4 * MIB
    cluster = Cluster(ClusterConfig(num_arrays=3, seed=5))
    cluster.create_volume("v", size)
    stream = random.Random(5)
    acked = bytearray(size)
    for offset in range(0, size, 64 * KIB):
        data = stream.randbytes(64 * KIB)
        cluster.write("v", offset, data)
        acked[offset:offset + len(data)] = data
    primary, secondary = cluster.mdm.routing("v")
    copied = cluster.obs.metrics.counter("cluster.rebalance.bytes_copied")
    cluster.partition(secondary, SUSPECT_AFTER + 0.3)
    while copied.value == 0:
        cluster.advance(0.001)
    cluster.advance(0.02 - 0.001)
    assert copied.value == 512 * KIB
    victim = primary if side == "source" else secondary
    cluster.kill(victim)
    assert cluster.mdm.status(victim) == ALIVE
    cluster.advance(0.1)
    # Stalled: nothing was copied from or to the dead array.
    assert copied.value == 512 * KIB
    cluster.revive(victim)
    cluster.settle()
    clean = cluster.mdm.clean_replicas("v")
    assert clean == sorted((primary, secondary))
    for node_id in clean:
        data = cluster.nodes[node_id].array.read(
            "v", 0, size, advance_clock=False)[0]
        assert data == acked, node_id


def test_killing_the_copy_source_mid_copy_stalls_the_copy():
    _kill_mid_copy("source")


def test_killing_the_copy_destination_mid_copy_stalls_the_copy():
    _kill_mid_copy("destination")
