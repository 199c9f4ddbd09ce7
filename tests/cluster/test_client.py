"""ClusterClient behavior: epoch routing, retries, failover, tracing."""

import json

from repro.cluster import ALIVE
from repro.cluster.config import DEAD_AFTER, HEARTBEAT_INTERVAL, REROUTE_BOUND

from tests.cluster.conftest import RECORD_SIZE, make_cluster


def test_write_reaches_every_serving_replica(cluster3):
    payload = b"r" * RECORD_SIZE
    cluster3.write("vol0", 0, payload)
    replicas = cluster3.mdm.routing("vol0")
    assert len(replicas) == 2
    for node_id in replicas:
        data, _lat = cluster3.nodes[node_id].array.read(
            "vol0", 0, RECORD_SIZE, advance_clock=False
        )
        assert data == payload


def test_stale_epoch_is_rejected_then_retried(cluster3):
    cluster3.write("vol0", 0, b"a" * RECORD_SIZE)
    # Simulate a membership change the client has not seen yet.
    victim = sorted(cluster3.nodes)[2]
    cluster3.kill(victim)
    cluster3.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    assert cluster3.client.epoch < cluster3.mdm.epoch
    stale_before = cluster3.obs.metrics.counter(
        "cluster.stale_retries"
    ).value
    cluster3.write("vol0", 0, b"b" * RECORD_SIZE)
    assert cluster3.client.epoch == cluster3.mdm.epoch
    assert cluster3.obs.metrics.counter("cluster.stale_retries").value \
        > stale_before
    data, _lat = cluster3.read("vol0", 0, RECORD_SIZE)
    assert data == b"b" * RECORD_SIZE
    cluster3.settle()


def test_primary_kill_fails_over_within_the_reroute_bound(cluster3):
    cluster3.write("vol0", 0, b"a" * RECORD_SIZE)
    primary = cluster3.mdm.routing("vol0")[0]
    cluster3.kill(primary)
    # The next write bounces off the dead primary, waits out the
    # failure detector, and lands on the promoted clean secondary.
    cluster3.write("vol0", 0, b"b" * RECORD_SIZE)
    assert cluster3.client.reroute_times
    bound = REROUTE_BOUND + HEARTBEAT_INTERVAL
    assert max(cluster3.client.reroute_times) <= bound
    assert cluster3.mdm.routing("vol0")[0] != primary
    data, _lat = cluster3.read("vol0", 0, RECORD_SIZE)
    assert data == b"b" * RECORD_SIZE
    cluster3.settle()


def test_short_partition_heals_without_failover(cluster3):
    cluster3.write("vol0", 0, b"a" * RECORD_SIZE)
    primary = cluster3.mdm.routing("vol0")[0]
    cluster3.partition(primary, HEARTBEAT_INTERVAL * 2)
    cluster3.write("vol0", 0, b"b" * RECORD_SIZE)
    # The partition was shorter than dead_after: same primary, and the
    # client waited only for the heal, not for a death declaration.
    assert cluster3.mdm.routing("vol0")[0] == primary
    assert cluster3.mdm.status(primary) == ALIVE
    cluster3.settle()
    data, _lat = cluster3.read("vol0", 0, RECORD_SIZE)
    assert data == b"b" * RECORD_SIZE


def test_suspect_secondary_is_skipped_and_dirtied(cluster3):
    cluster3.write("vol0", 0, b"a" * RECORD_SIZE)
    secondary = cluster3.mdm.routing("vol0")[1]
    cluster3.mdm.report_unreachable(secondary)
    cluster3.write("vol0", 0, b"b" * RECORD_SIZE)
    # The ack excluded the suspect: its bytes are stale and the MDM
    # knows it (the secondary left the clean set when suspected).
    assert secondary not in cluster3.mdm.clean_replicas("vol0")
    data, _lat = cluster3.nodes[secondary].array.read(
        "vol0", 0, RECORD_SIZE, advance_clock=False
    )
    assert data == b"a" * RECORD_SIZE
    cluster3.settle()
    # Settling re-ran the refresh copy: clean again, bytes caught up.
    assert secondary in cluster3.mdm.clean_replicas("vol0")
    data, _lat = cluster3.nodes[secondary].array.read(
        "vol0", 0, RECORD_SIZE, advance_clock=False
    )
    assert data == b"b" * RECORD_SIZE


def test_one_trace_follows_a_failover_end_to_end():
    """The obs contract: client span, failover span, node-side engine
    spans, and the membership event all land in one shared trace."""
    cluster = make_cluster(3, seed=23)
    cluster.enable_tracing()
    cluster.write("vol0", 0, b"a" * RECORD_SIZE)
    primary = cluster.mdm.routing("vol0")[0]
    cluster.kill(primary)
    cluster.write("vol0", 0, b"b" * RECORD_SIZE)
    cluster.settle()
    text = "\n".join(json.dumps(r, sort_keys=True)
                     for r in cluster.obs.records)
    for needle in ("cluster.write", "cluster.failover",
                   "cluster.membership", "nvram-commit"):
        assert needle in text, needle
    spans = [r for r in cluster.obs.records
             if r.get("name") == "cluster.failover"]
    assert spans and spans[0]["attrs"]["node"] == primary


def test_reroute_latency_lands_in_the_histogram(cluster3):
    cluster3.write("vol0", 0, b"a" * RECORD_SIZE)
    primary = cluster3.mdm.routing("vol0")[0]
    cluster3.kill(primary)
    cluster3.write("vol0", 0, b"b" * RECORD_SIZE)
    summary = cluster3.obs.metrics.histogram(
        "cluster.reroute.latency"
    ).summary()
    assert summary["count"] >= 1
    cluster3.settle()
