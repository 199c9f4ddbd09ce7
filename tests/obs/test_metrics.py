"""Unit tests for the unified metrics registry."""

import pytest

from repro.obs.metrics import BUCKET_BOUNDS, Histogram, MetricsRegistry
from repro.perf import PERF


def test_counter_and_gauge_roundtrip():
    registry = MetricsRegistry()
    registry.counter("io.write.ops").inc()
    registry.counter("io.write.ops").inc(3)
    registry.gauge("drives.alive").set(11)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["io.write.ops"] == 4
    assert snapshot["gauges"]["drives.alive"] == 11


def test_counter_identity_is_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.histogram("h") is registry.histogram("h")
    assert registry.series("s") is registry.series("s")


def test_histogram_stats_exact():
    histogram = Histogram("io.read.latency")
    samples = [0.001 * i for i in range(1, 101)]
    for value in samples:
        histogram.record(value)
    assert histogram.count == 100
    assert histogram.min == pytest.approx(0.001)
    assert histogram.max == pytest.approx(0.100)
    assert histogram.mean == pytest.approx(sum(samples) / 100)
    assert histogram.percentile(0.5) == pytest.approx(0.051)
    assert histogram.percentile(1.0) == pytest.approx(0.100)
    summary = histogram.summary()
    assert summary["count"] == 100
    assert summary["p99"] == pytest.approx(0.099)


def test_histogram_buckets_are_log_scale_and_stable():
    # 4 buckets per decade from 1 us: the bounds are frozen by the
    # module, so exported histograms compare across runs and versions.
    assert BUCKET_BOUNDS[0] == pytest.approx(1e-6)
    assert len(BUCKET_BOUNDS) == 33
    histogram = Histogram("h")
    histogram.record(0.5e-6)   # below the first bound
    histogram.record(2.0)      # mid-range
    histogram.record(1000.0)   # beyond the last bound -> overflow bucket
    assert histogram.buckets[0] == 1
    assert histogram.buckets[-1] == 1
    assert sum(histogram.buckets) == 3
    rows = histogram.bucket_rows()
    assert rows[-1][0] is None  # overflow bucket has no upper bound


def test_histogram_reset_keeps_identity():
    registry = MetricsRegistry()
    histogram = registry.histogram("io.write.latency")
    histogram.record(0.004)
    histogram.reset()
    assert histogram.count == 0
    assert histogram.summary() == {"count": 0}
    assert registry.histogram("io.write.latency") is histogram


def test_empty_histogram_percentile_raises():
    with pytest.raises(ValueError):
        Histogram("empty").percentile(0.5)


def test_series_sampling():
    registry = MetricsRegistry()
    series = registry.series("device.queue_depth")
    series.sample(0.0, 3)
    series.sample(1.5, 7)
    assert series.points == [(0.0, 3), (1.5, 7)]
    assert series.last() == 7
    assert registry.snapshot()["series"]["device.queue_depth"] == [
        (0.0, 3),
        (1.5, 7),
    ]


def test_snapshot_merges_perf_counters():
    registry = MetricsRegistry()
    registry.counter("obs.local").inc()
    PERF.incr("some-hot-path-counter", 5)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["perf.counter.some-hot-path-counter"] == 5
    assert snapshot["counters"]["obs.local"] == 1

