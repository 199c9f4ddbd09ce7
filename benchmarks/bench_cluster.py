"""Cluster scale-out benchmark: modeled throughput + rebalance cost.

The cluster layer (``repro.cluster``) places volumes over N member
arrays with RF=2 synchronous replication and reroutes around dead
members. This bench drives one seeded client workload through 1-, 2-
and 4-array clusters and reports:

* the **modeled** scale-out factor per cluster size — a deterministic
  bottleneck model: every byte a node ingests (its replica share of the
  writes plus the reads it serves as primary) is that node's load, and
  cluster throughput is client bytes divided by the most-loaded node.
  The container has one CPU, so wall-clock scale-out is unmeasurable
  here by construction; the model is seed-stable and is what the gate
  checks. Writes land on two replicas, so write-heavy load scales at
  roughly N/2 while reads (served by the primary alone) scale at N;
* the realized RF=2 write amplification (exactly 2.0 by protocol);
* the rebalance bill for one kill/revive cycle — volumes moved, bytes
  streamed by refresh copies, and whether the client reroute latency
  stayed inside the configured bound;
* a chaos invariant bit: one seeded array-kill schedule completes with
  zero acked-write loss.

Every row in ``BENCH_cluster.json`` is deterministic.

Run directly to see the numbers::

    PYTHONPATH=src python -m benchmarks.bench_cluster
"""

import argparse
import json

from repro.bench import (
    Metric,
    bench_seed,
    register,
    shape_equal,
    shape_min,
)
from repro.cluster import Cluster, ClusterConfig, ClusterTarget
from repro.cluster.config import DEAD_AFTER, HEARTBEAT_INTERVAL, REROUTE_BOUND
from repro.faults.chaos import ChaosHarness
from repro.faults.plan import ARRAY_KILL, ARRAY_REVIVE
from repro.sim.rand import RandomStream
from repro.units import KIB

SCALEOUT_SEED = bench_seed("cluster.scaleout")
REBALANCE_SEED = bench_seed("cluster.rebalance")
CHAOS_SEED = bench_seed("cluster.chaos")

#: Workload shape: a 50/50 read/write mix, uniform across volumes so
#: the primary spread is what scales, zipf-skewed within each volume
#: so the engine still sees hot slots.
CLUSTER_SIZES = (1, 2, 4)
NUM_VOLUMES = 8
RECORD = 8 * KIB
SLOTS = 4
OPS = 96

REBALANCE_ARRAYS = 3


def _ops():
    """The seeded op tape, identical for every cluster size."""
    stream = RandomStream(SCALEOUT_SEED).fork("cluster-scaleout")
    ops = []
    for _ in range(OPS):
        volume = "svol%d" % stream.randint(0, NUM_VOLUMES - 1)
        offset = stream.zipf_index(SLOTS) * RECORD
        if stream.random() < 0.5:
            ops.append(("read", volume, offset, None))
        else:
            ops.append(("write", volume, offset, stream.randbytes(RECORD)))
    return ops


def run_scale(num_arrays, ops):
    """One seeded pass; returns per-node byte loads and the model."""
    cluster = Cluster(ClusterConfig(num_arrays=num_arrays,
                                    seed=SCALEOUT_SEED))
    for index in range(NUM_VOLUMES):
        cluster.create_volume("svol%d" % index, SLOTS * RECORD)
    read_bytes = {node_id: 0 for node_id in cluster.nodes}
    client_bytes = 0
    for verb, volume, offset, data in ops:
        if verb == "write":
            cluster.write(volume, offset, data)
            client_bytes += len(data)
        else:
            if cluster.passthrough:
                primary = next(iter(cluster.nodes))
            else:
                primary = cluster.mdm.routing(volume)[0]
            cluster.read(volume, offset, RECORD)
            read_bytes[primary] += RECORD
            client_bytes += RECORD
    write_bytes = {
        node_id: node.array.datapath.logical_bytes_written
        for node_id, node in cluster.nodes.items()
    }
    busiest = max(write_bytes[n] + read_bytes[n] for n in cluster.nodes)
    return {
        "arrays": num_arrays,
        "client_bytes": client_bytes,
        "replica_write_bytes": sum(write_bytes.values()),
        "busiest_node_bytes": busiest,
        "throughput_model": round(client_bytes / busiest, 4),
    }


def run_scaleout():
    ops = _ops()
    rows = [run_scale(num_arrays, ops) for num_arrays in CLUSTER_SIZES]
    baseline = rows[0]["throughput_model"]
    for row in rows:
        row["throughput_x"] = round(row["throughput_model"] / baseline, 4)
    client_writes = sum(len(data) for verb, _v, _o, data in ops
                        if verb == "write")
    amplification = rows[-1]["replica_write_bytes"] / client_writes
    return {
        "rows": rows,
        "write_amplification": round(amplification, 4),
    }


def run_rebalance():
    """Kill/revive one member; bill the moves, copies and reroute."""
    cluster = Cluster(ClusterConfig(num_arrays=REBALANCE_ARRAYS,
                                    seed=REBALANCE_SEED))
    volumes = ["rvol%d" % index for index in range(NUM_VOLUMES)]
    for volume in volumes:
        cluster.create_volume(volume, SLOTS * RECORD)
        for slot in range(SLOTS):
            cluster.write(volume, slot * RECORD, b"\x5a" * RECORD)
    victim = cluster.mdm.routing(volumes[0])[0]
    cluster.kill(victim)
    # The next write bounces off the dead primary and times the reroute.
    cluster.write(volumes[0], 0, b"\xa5" * RECORD)
    cluster.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    cluster.settle()
    cluster.revive(victim)
    cluster.settle()
    moved = cluster.obs.metrics.counter(
        "cluster.rebalance.volumes_moved"
    ).value
    copied = cluster.obs.metrics.counter(
        "cluster.rebalance.bytes_copied"
    ).value
    bound = REROUTE_BOUND + HEARTBEAT_INTERVAL
    reroutes = list(cluster.client.reroute_times)
    surviving = [cluster.read(volume, 0, RECORD)[0] for volume in volumes]
    intact = surviving[0] == b"\xa5" * RECORD and all(
        data == b"\x5a" * RECORD for data in surviving[1:]
    )
    return {
        "volumes": NUM_VOLUMES,
        "volumes_moved": moved,
        "bytes_copied": copied,
        "reroute_times": [round(t, 4) for t in reroutes],
        "reroute_bound": round(bound, 4),
        "reroute_within_bound": bool(reroutes)
        and max(reroutes) <= bound,
        "data_intact": intact,
    }


def run_chaos():
    """One seeded array-kill schedule; the zero-acked-loss invariant."""
    report = ChaosHarness(
        CHAOS_SEED, target=ClusterTarget, total_ops=240, maintenance_every=40,
    ).run()
    return {
        "seed": CHAOS_SEED,
        "ops": report.ops,
        "kills": report.counts[ARRAY_KILL],
        "revives": report.counts[ARRAY_REVIVE],
        "failovers": len(report.outages),
        "violations": len(report.violations),
        "zero_acked_write_loss": report.data_loss is None
        and not report.violations,
    }


def run_all():
    return {
        "seed": SCALEOUT_SEED,
        "ops": OPS,
        "record_bytes": RECORD,
        "scaleout": run_scaleout(),
        "rebalance": run_rebalance(),
        "chaos": run_chaos(),
    }


def summarize(results):
    lines = ["arrays  client MB   busiest-node MB   modeled x"]
    for row in results["scaleout"]["rows"]:
        lines.append("  %d       %6.2f        %6.2f         %.2fx" % (
            row["arrays"], row["client_bytes"] / 1e6,
            row["busiest_node_bytes"] / 1e6, row["throughput_x"]))
    lines.append("write amplification    %.2fx (RF=2 sync replication)"
                 % results["scaleout"]["write_amplification"])
    rebalance = results["rebalance"]
    lines.append("kill/revive rebalance  %d/%d volumes moved, %.2f MB "
                 "copied" % (rebalance["volumes_moved"],
                             rebalance["volumes"],
                             rebalance["bytes_copied"] / 1e6))
    lines.append("reroute                max %.2fs (bound %.2fs)" % (
        max(rebalance["reroute_times"]), rebalance["reroute_bound"]))
    chaos = results["chaos"]
    lines.append("chaos seed %-11d %d kills, %d failovers, "
                 "%d violations" % (chaos["seed"], chaos["kills"],
                                    chaos["failovers"],
                                    chaos["violations"]))
    return "\n".join(lines)


@register("cluster", group="cluster", quick=True,
          title="Cluster scale-out: modeled throughput, rebalance cost")
def collect():
    results = run_all()
    rows = {row["arrays"]: row for row in results["scaleout"]["rows"]}
    rebalance = results["rebalance"]
    chaos = results["chaos"]
    return [
        Metric("scaleout_throughput_x_1", rows[1]["throughput_x"], "x",
               shape_equal(1.0, paper="the 1-array cluster is the "
                                      "baseline")),
        Metric("scaleout_throughput_x_2", rows[2]["throughput_x"], "x",
               shape_min(1.1)),
        Metric("scaleout_throughput_x_4", rows[4]["throughput_x"], "x",
               shape_min(1.6, paper="reads scale with primaries, "
                                    "writes at N/2 under RF=2")),
        Metric("write_amplification",
               results["scaleout"]["write_amplification"], "x",
               shape_equal(2.0, paper="RF=2 synchronous replication")),
        Metric("rebalance_volumes_moved", rebalance["volumes_moved"],
               "volumes", shape_min(1)),
        Metric("rebalance_bytes_copied", rebalance["bytes_copied"],
               "bytes", shape_min(RECORD)),
        Metric("reroute_within_bound",
               rebalance["reroute_within_bound"], "bool",
               shape_equal(1, paper="failover inside the configured "
                                    "detection + slack window")),
        Metric("rebalance_data_intact", rebalance["data_intact"],
               "bool", shape_equal(1)),
        Metric("chaos_kills", chaos["kills"], "kills", shape_min(1)),
        Metric("chaos_zero_acked_write_loss",
               chaos["zero_acked_write_loss"], "bool",
               shape_equal(1, paper="no acknowledged write is ever "
                                    "lost to an array kill")),
    ]


# ----------------------------------------------------------------------
# pytest entry: the same measurements as a regression guard


def test_cluster_scaleout(once):
    from benchmarks.conftest import emit

    results = once(run_all)
    emit("cluster_scaleout", summarize(results))
    rows = {row["arrays"]: row for row in results["scaleout"]["rows"]}
    assert rows[4]["throughput_x"] >= 1.6
    assert results["rebalance"]["reroute_within_bound"]
    assert results["chaos"]["zero_acked_write_loss"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write full results as JSON to PATH",
    )
    options = parser.parse_args(argv)
    results = run_all()
    print(summarize(results))
    if options.json:
        with open(options.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("\nwrote %s" % options.json)
    return results


if __name__ == "__main__":
    main()
