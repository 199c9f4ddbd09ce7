"""Single source of truth for benchmark seeds.

Before the orchestrator existed, each ``benchmarks/bench_*.py`` pinned
its own ad-hoc literals; a whole-suite run was only reproducible if
every script happened to stay untouched. All seeds now live in this one
table, keyed ``<bench>.<role>``, and scripts draw them through
:func:`bench_seed` — so the orchestrator can record exactly which seeds
produced a ``BENCH_*.json`` file and a whole-suite run is reproducible
end to end from :data:`ROOT_SEED` plus this table alone.

The values are the historical per-script pins (changing them would
shift every measured number and invalidate EXPERIMENTS.md); what moved
is *where* they live, not what they are. New benchmarks should claim
the next unused value rather than inventing a private constant.
"""

#: The paper's publication year; the orchestrator stamps it into every
#: emitted document so a reader can tie artifacts to this table.
ROOT_SEED = 2015

#: ``<bench>.<role>`` -> seed. Roles name the stream's purpose inside
#: the script (workload data, measurement arrivals, device jitter ...).
SEEDS = {
    # Table 1: simulated Purity vs disk array under the same workload.
    "table1.purity": 31,
    "table1.disk": 32,
    # Figure 1: SSD substrate behaviours. Queue-depth curve seeds are
    # derived per depth: device gets the depth, arrivals get base+depth.
    "fig1.qd_arrival_base": 1000,
    "fig1.calm_device": 1,
    "fig1.busy_device": 2,
    "fig1.stall_arrivals": 5,
    "fig1.sequential_device": 3,
    "fig1.random_device": 4,
    "fig1.random_offsets": 9,
    # Figure 2: HA envelope.
    "fig2.failover_array": 0,
    "fig2.failover_data": 1,
    "fig2.forwarding_array": 3,
    "fig2.forwarding_data": 4,
    "fig2.pulled_array": 5,
    "fig2.pulled_data": 6,
    # Figure 3: segio layout.
    "fig3.data": 12,
    # Figure 4: commit path.
    "fig4.commit_data": 21,
    "fig4.wal_data": 22,
    "fig4.frontier_data": 23,
    # Figure 5: recovery scans. Fill-level runs derive seed = base+fill.
    "fig5.fill_base": 0,
    "fig5.correctness_fill": 77,
    "fig5.probes": 1234,
    # Figure 6: medium resolution.
    "fig6.lineage_data": 61,
    # Data reduction sweeps.
    "data_reduction.class_base": 100,
    "data_reduction.oltp": 7,
    "data_reduction.docstore": 8,
    "data_reduction.vdi": 9,
    "data_reduction.inline_ablation": 71,
    "data_reduction.sampling_ablation": 55,
    # Load-latency curve: per-rate arrays derive from the rate itself.
    "load_latency.rate_offset_array": 0,
    "load_latency.rate_offset_driver": 1,
    "load_latency.rate_offset_trace": 2,
    # Tail latency / read-around-writes.
    "tail_latency.workload": 17,
    "tail_latency.sla_workload": 23,
    # Throughput through failures.
    "failure_throughput.array": 41,
    "failure_throughput.rebuild_array": 42,
    "failure_throughput.reads_healthy": 1,
    "failure_throughput.reads_one_failed": 2,
    "failure_throughput.reads_two_failed": 3,
    # Metadata compression.
    "metadata.address_rows": 3,
    "metadata.scan_rows": 9,
    # RAID ablation.
    "raid.stripe_data": 3,
    "raid.degraded_data": 4,
    # Worn flash.
    "worn_flash.scrubbed": 51,
    "worn_flash.control": 52,
    # Chaos schedules: the survival sweep plus named single schedules.
    "chaos.sweep": (0, 3, 7, 9, 11),
    "chaos.throughput": 21,
    "chaos.traced": 9,
    "chaos.stall_storm": 33,
    "chaos.rebuild_throttle": 34,
    # Cluster layer: one op tape drives every cluster size; rebalance
    # and chaos get their own schedules (6 is a surveyed kill seed).
    "cluster.scaleout": 29,
    "cluster.rebalance": 47,
    "cluster.chaos": 6,
    # Service plane: noisy-neighbor isolation, 10k-volume
    # consolidation, and the cluster-backed front-end run.
    "service.noisy": 53,
    "service.consolidation": 54,
    "service.cluster": 56,
}


def bench_seed(key):
    """The pinned seed for ``<bench>.<role>``; KeyError names the key."""
    try:
        return SEEDS[key]
    except KeyError:
        raise KeyError(
            "no pinned benchmark seed for %r; add it to "
            "repro.bench.seeds.SEEDS" % (key,)
        ) from None
