"""Tests for telemetry primitives: latency traces, reduction math, and
the hot-path event-counter layer (cblock cache counters and friends)."""

import pytest

from repro.core.telemetry import (
    PerfCounters,
    ReductionReport,
    format_perf_report,
    perf_report,
    reset_perf_counters,
)


def test_io_latency_lives_in_the_metrics_registry():
    """The old LatencyRecorder shim is gone; io.<op>.latency histograms
    in the unified registry are the one source of latency truth."""
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.distributions import percentile

    registry = MetricsRegistry()
    histogram = registry.histogram("io.read.latency")
    for value in (0.001, 0.002, 0.003):
        histogram.record(value)
    registry.histogram("io.write.latency").record(0.0001)
    assert histogram.count == 3
    assert registry.histogram("io.write.latency").count == 1
    assert histogram.mean == pytest.approx(0.002)
    assert percentile(histogram.samples, 0.5) == 0.002


def test_latency_recorder_shim_is_gone():
    import repro.core.telemetry as telemetry

    assert not hasattr(telemetry, "LatencyRecorder")


def make_report(logical=1000, unique=500, physical=250, provisioned=10000):
    return ReductionReport(
        logical_live_bytes=logical,
        unique_logical_bytes=unique,
        physical_stored_bytes=physical,
        physical_with_parity_bytes=int(physical * 9 / 7),
        provisioned_bytes=provisioned,
    )


def test_reduction_decomposes_multiplicatively():
    report = make_report()
    assert report.dedup_ratio == pytest.approx(2.0)
    assert report.compression_ratio == pytest.approx(2.0)
    assert report.data_reduction == pytest.approx(
        report.dedup_ratio * report.compression_ratio
    )


def test_thin_provisioning_separate_from_reduction():
    report = make_report()
    assert report.thin_provisioning == pytest.approx(10.0)
    # Thin provisioning never enters data_reduction (the paper excludes it).
    assert report.data_reduction == pytest.approx(4.0)


def test_empty_report_degenerates_to_unity():
    report = make_report(logical=0, unique=0, physical=0, provisioned=0)
    assert report.data_reduction == 1.0
    assert report.dedup_ratio == 1.0
    assert report.compression_ratio == 1.0
    assert report.thin_provisioning == 1.0


def test_provisioned_with_no_data_is_infinite_thin():
    report = make_report(logical=0, unique=0, physical=0, provisioned=100)
    assert report.thin_provisioning == float("inf")


def test_perf_counters_timers_and_counts():
    perf = PerfCounters()
    perf.incr("cblock-cache-hit", 3)
    perf.incr("cblock-cache-miss")
    report = perf.report()
    assert report["counters"]["cblock-cache-hit"] == 3
    assert report["derived"]["cblock-cache-hit-rate"] == pytest.approx(0.75)
    perf.reset()
    assert perf.report() == {"counters": {}, "derived": {}}


def test_perf_report_exposes_pipeline_stages_and_cache_counters():
    """Driving a real array through every pipeline stage populates the
    cache counters."""
    from repro.core.array import PurityArray
    from repro.core.config import ArrayConfig
    from repro.sim.rand import RandomStream
    from repro.units import KIB, MIB

    reset_perf_counters()
    config = ArrayConfig.small(num_drives=11, cblock_cache_entries=4, seed=3)
    array = PurityArray.create(config)
    array.create_volume("v", 2 * MIB)
    stream = RandomStream(3)
    for index in range(24):
        array.write("v", index * 16 * KIB, stream.randbytes(16 * KIB))
    array.drain()
    array.datapath.drop_caches()
    for index in range(8):
        array.read("v", index * 16 * KIB, 16 * KIB)
    report = perf_report()
    counters = report["counters"]
    assert counters["cblock-cache-miss"] > 0
    assert counters["cblock-cache-eviction"] > 0
    assert 0.0 <= report["derived"].get("cblock-cache-hit-rate", 0.0) <= 1.0
    # The datapath's own cache counters agree with the report's mechanism.
    cache = array.datapath._cblock_cache
    assert cache.counters()["entries"] <= config.cblock_cache_entries
    assert cache.misses > 0 and cache.evictions > 0
    text = format_perf_report(report)
    assert "cblock-cache-miss" in text


def test_cblock_cache_counters_and_segment_invalidation():
    from repro.core.datapath import CBlockCache

    reset_perf_counters()
    cache = CBlockCache(capacity=2)
    assert cache.get((1, 0)) is None  # miss
    cache.put((1, 0), b"a")
    cache.put((1, 64), b"b")
    assert cache.get((1, 0)) == b"a"  # hit
    cache.put((2, 0), b"c")  # evicts LRU (1, 64)
    assert cache.evictions == 1
    assert (1, 64) not in cache
    assert cache.invalidate_segment(1) == 1
    assert (1, 0) not in cache and (2, 0) in cache
    assert cache.counters() == {
        "hits": 1,
        "misses": 1,
        "evictions": 1,
        "invalidations": 1,
        "entries": 1,
    }
    assert cache.invalidate_segment(99) == 0
    counters = perf_report()["counters"]
    assert counters["cblock-cache-hit"] == 1
    assert counters["cblock-cache-miss"] == 1
    assert counters["cblock-cache-eviction"] == 1
    assert counters["cblock-cache-invalidation"] == 1


def test_degraded_mode_report_surfaces_retry_and_health_counters():
    """Satellite of the chaos work: the numbers a support engineer
    pulls first — per-drive retries, health grades, device counters —
    flow through one report."""
    from repro.core.array import PurityArray
    from repro.core.config import ArrayConfig
    from repro.core.telemetry import degraded_mode_report
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import CORRUPT_BURST, FaultPlan, FaultSpec
    from repro.sim.rand import RandomStream
    from repro.units import KIB, MIB

    array = PurityArray.create(ArrayConfig.small(seed=5))
    array.create_volume("v", 2 * MIB)
    stream = RandomStream(5)
    for index in range(8):
        array.write("v", index * 16 * KIB, stream.randbytes(16 * KIB))
    array.drain()
    array.datapath.drop_caches()
    target = next(iter(array.tables.segments.scan())).value[0][0][0]
    plan = FaultPlan().add(FaultSpec(0, CORRUPT_BURST, target, (6,)))
    FaultInjector(plan).attach(array).advance_to_op(0)
    for index in range(8):
        array.read("v", index * 16 * KIB, 16 * KIB)
    report = degraded_mode_report(array)
    assert report["retries"][target]["attempts"] > 0
    assert report["retries"][target]["exhausted"] > 0
    assert report["health"][target]["corrupted_reads"] > 0
    assert report["devices"][target]["corrupted_reads"] > 0
    assert not report["devices"][target]["failed"]
    assert report["reconstructed_reads"] > 0
    assert report["direct_reads"] > 0
    # The same outcomes landed on the global perf counters.
    counters = perf_report()["counters"]
    assert counters["segread-retry"] > 0
    assert counters["health-corrupted-read"] > 0
