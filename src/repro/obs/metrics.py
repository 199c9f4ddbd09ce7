"""The unified metrics registry.

One namespace for every number the simulation reports:

* **counters** — monotone event counts (``io.write.ops``);
* **gauges** — last-value-wins instantaneous readings;
* **histograms** — latency distributions with fixed log-scale buckets
  (4 per decade, 1 µs .. ~100 s) *plus* the raw samples, so bucket rows
  render cheaply while percentiles stay exact;
* **series** — (sim time, value) points sampled periodically (queue
  depth, cache hit rate), the raw material of the report's time plots.

Naming convention: dotted ``<subsystem>.<thing>[.<unit>]`` — e.g.
``io.write.latency``, ``device.queue_depth``, ``gc.segments_collected``.
Each array owns its registry, so a snapshot holds only what that array
counted.
"""

#: Histogram bucket upper bounds in seconds: 4 log-scale buckets per
#: decade from 1 µs to ~100 s, then +inf. Fixed when the module loads,
#: so every histogram in every run buckets identically.
BUCKET_BOUNDS = tuple(10.0 ** (exponent / 4.0) for exponent in range(-24, 9))


class Counter:
    """A monotone event counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """An instantaneous reading; last set wins."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0.0

    def set(self, value):
        self.value = value


class Histogram:
    """Fixed log-bucket latency histogram with exact percentiles.

    Buckets make the shape renderable without the samples; the raw
    samples (simulation scale keeps them small) make ``percentile``
    exact rather than bucket-interpolated.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets", "samples",
                 "_sorted")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self.samples = []
        self._sorted = None

    def reset(self):
        """Zero everything; the histogram object (and name) survive."""
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self.samples = []
        self._sorted = None

    def record(self, value):
        """Add one sample (seconds for latency metrics)."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        lo, hi = 0, len(BUCKET_BOUNDS)
        while lo < hi:
            mid = (lo + hi) // 2
            if BUCKET_BOUNDS[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self.buckets[lo] += 1
        self.samples.append(value)
        self._sorted = None

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction):
        """Exact percentile over the recorded samples (fraction in [0,1])."""
        if not self.samples:
            raise ValueError("percentile of empty histogram %r" % self.name)
        if self._sorted is None:
            self._sorted = sorted(self.samples)
        ordered = self._sorted
        index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[index]

    def bucket_rows(self):
        """Non-empty (upper_bound_seconds_or_None, count) rows."""
        rows = []
        for index, count in enumerate(self.buckets):
            if not count:
                continue
            bound = BUCKET_BOUNDS[index] if index < len(BUCKET_BOUNDS) else None
            rows.append((bound, count))
        return rows

    def summary(self):
        """Plain-dict rollup for snapshots and JSONL export."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }


class Series:
    """A (sim time, value) time series sampled by the harness."""

    __slots__ = ("name", "points")

    def __init__(self, name):
        self.name = name
        self.points = []

    def sample(self, time, value):
        self.points.append((time, value))

    def last(self):
        return self.points[-1][1] if self.points else None


class MetricsRegistry:
    """Get-or-create home for every metric of one simulated system."""

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}
        self._series = {}

    # -- accessors (get-or-create, so call sites never pre-register) ----

    def counter(self, name):
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name):
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name):
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def series(self, name):
        metric = self._series.get(name)
        if metric is None:
            metric = self._series[name] = Series(name)
        return metric

    def histograms(self):
        return [self._histograms[name] for name in sorted(self._histograms)]

    # -- snapshots ------------------------------------------------------

    def snapshot(self):
        """Everything, as one sorted plain dict."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].summary()
                for name in sorted(self._histograms)
            },
            "series": {
                name: list(self._series[name].points)
                for name in sorted(self._series)
            },
        }

    def clear(self):
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._series.clear()


class DiscardingRegistry(MetricsRegistry):
    """Keeps nothing: every accessor hands out a fresh, unregistered
    metric. :data:`repro.obs.trace.NULL_OBS` uses it, so components
    built standalone share no metric state through it."""

    def counter(self, name):
        return Counter(name)

    def gauge(self, name):
        return Gauge(name)

    def histogram(self, name):
        return Histogram(name)

    def series(self, name):
        return Series(name)
