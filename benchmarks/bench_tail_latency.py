"""Section 4.4: I/O scheduling and tail latency.

The vast majority of slow SSD reads happen while the drive is servicing
segment writes. Purity treats writing drives as failed and rebuilds the
requested data from parity instead, paying ~1.3x reads on write-heavy
workloads for an order-of-magnitude better tail.

This is the read-around-writes ablation: the same paced mixed workload
runs with the scheduler on and off; the on-case must flatten the tail
(p99/p99.9) while increasing reconstruction reads by a bounded factor.
"""

import json

from benchmarks.conftest import emit
from repro.analysis.reporting import format_table
from repro.bench import Metric, bench_seed, register, shape_max, shape_min
from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.telemetry import format_perf_report, reset_perf_counters
from repro.obs.export import metrics_lines
from repro.obs.report import per_stage_table, series_table
from repro.sim.distributions import percentile
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB

OPERATIONS = 900
WRITE_FRACTION = 0.3
#: Paced arrivals: think time between ops keeps backend load sustainable
#: at the miniature write-unit scale.
THINK_TIME = 0.002
#: Sample the queue-depth / cache-hit gauges every this many ops.
SAMPLE_EVERY = 100


def run_workload(read_around_writes, seed=None):
    if seed is None:
        seed = bench_seed("tail_latency.workload")
    config = ArrayConfig.small(
        num_drives=11,
        drive_capacity=64 * MIB,
        read_around_writes=read_around_writes,
        cblock_cache_entries=8,
        seed=seed,
    )
    array = PurityArray.create(config)
    array.obs.enable_tracing()
    stream = RandomStream(seed)
    volume_bytes = 8 * MIB
    array.create_volume("v", volume_bytes)
    slots = volume_bytes // (16 * KIB)
    for slot in range(slots):
        array.write("v", slot * 16 * KIB, stream.randbytes(16 * KIB))
    array.drain()
    array.datapath.drop_caches()
    array.clock.advance(1.0)

    read_latencies = []
    for op in range(OPERATIONS):
        offset = stream.randint(0, slots - 1) * 16 * KIB
        if stream.random() < WRITE_FRACTION:
            array.write("v", offset, stream.randbytes(16 * KIB))
        else:
            _data, latency = array.read("v", offset, 16 * KIB)
            read_latencies.append(latency)
        array.clock.advance(THINK_TIME)
        if (op + 1) % SAMPLE_EVERY == 0:
            array.observe_sample()
    return read_latencies, array


def _run_ablation():
    reset_perf_counters()
    with_scheduler, array_on = run_workload(True)
    without_scheduler, array_off = run_workload(False)
    return with_scheduler, array_on, without_scheduler, array_off


@register("tail_latency", group="paper_shapes",
          title="Section 4.4: read-around-writes and tail latency")
def collect():
    on_latencies, array_on, off_latencies, array_off = _run_ablation()
    reads_on = array_on.segreader.direct_reads + (
        array_on.segreader.reconstructed_reads
    )
    amplification = (
        array_on.segreader.direct_reads
        + array_on.segreader.reconstructed_reads
        * array_on.config.segment_geometry.data_shards
    ) / max(1, reads_on)
    sla_latencies, _sla_array = run_workload(
        True, seed=bench_seed("tail_latency.sla_workload")
    )
    metrics = [
        Metric("scheduler_tail_improvement",
               percentile(off_latencies, 0.999)
               / percentile(on_latencies, 0.999), "x",
               shape_min(1.0, paper="order-of-magnitude better tail")),
        Metric("device_read_amplification", amplification, "x",
               shape_max(2.0, paper="~1.3x reads on write-heavy")),
        Metric("extra_reconstructed_reads",
               array_on.segreader.reconstructed_reads
               - array_off.segreader.reconstructed_reads, "reads",
               shape_min(1, paper="actually reads around busy drives")),
        Metric("sla_p999", percentile(sla_latencies, 0.999) * 1e6, "us",
               shape_max(10000, paper="99.9% under 1 ms regime")),
    ]
    return metrics, array_on.obs.records


def test_read_around_writes_flattens_tail(once):
    on_latencies, array_on, off_latencies, array_off = once(_run_ablation)

    def describe(latencies, array):
        reads = array.segreader.direct_reads + array.segreader.reconstructed_reads
        amplification = (
            array.segreader.direct_reads
            + array.segreader.reconstructed_reads
            * array.config.segment_geometry.data_shards
        ) / max(1, reads)
        return [
            percentile(latencies, 0.5) * 1e6,
            percentile(latencies, 0.99) * 1e6,
            percentile(latencies, 0.999) * 1e6,
            array.segreader.reconstructed_reads,
            round(amplification, 2),
        ]

    rows = [
        ["read-around-writes ON"] + describe(on_latencies, array_on),
        ["scheduler OFF"] + describe(off_latencies, array_off),
    ]
    emit("tail_latency_read_around_writes", format_table(
        ["Scheduler", "p50 (us)", "p99 (us)", "p99.9 (us)",
         "reconstructed reads", "device-read amplification"],
        rows,
        title="Tail latency: read around busy-writing drives "
              "(30%% writes, %d ops)" % OPERATIONS))
    # Cache, retry and health event counters of the two workloads.
    emit("tail_latency_perf_counters", format_perf_report())
    # Per-stage *simulated* latency from the trace of the scheduler-on
    # run, plus the sampled queue-depth / cache-hit series.
    emit("tail_latency_obs_stages", per_stage_table(array_on.obs.records))
    metrics_records = [json.loads(line) for line in metrics_lines(array_on.obs)]
    emit("tail_latency_obs_series", series_table(metrics_records))

    # Shape: the scheduler flattens the tail ...
    assert percentile(on_latencies, 0.999) < percentile(off_latencies, 0.999)
    # ... by actually reconstructing around busy drives ...
    assert array_on.segreader.reconstructed_reads > (
        array_off.segreader.reconstructed_reads
    )
    # ... at a bounded extra-read cost (paper: <= ~1.3x on write-heavy).
    reads_on = array_on.segreader.direct_reads + (
        array_on.segreader.reconstructed_reads
    )
    amplification = (
        array_on.segreader.direct_reads
        + array_on.segreader.reconstructed_reads
        * array_on.config.segment_geometry.data_shards
    ) / max(1, reads_on)
    assert amplification < 2.0


def test_sub_millisecond_service_at_modest_load(once):
    """At comfortable load, the p99.9 read stays well-behaved (the
    '99.9% under 1 ms' regime, at simulation scale)."""

    def run():
        latencies, _array = run_workload(
            True, seed=bench_seed("tail_latency.sla_workload")
        )
        return latencies

    latencies = once(run)
    p999 = percentile(latencies, 0.999)
    emit("tail_latency_sla",
         "read p50 %.1f us, p99 %.1f us, p99.9 %.1f us over %d reads" % (
             percentile(latencies, 0.5) * 1e6,
             percentile(latencies, 0.99) * 1e6,
             p999 * 1e6, len(latencies)))
    assert p999 < 0.01  # an order of magnitude under disk seek territory
