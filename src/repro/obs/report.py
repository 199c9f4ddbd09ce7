"""Render observability JSONL into the paper-defense views.

``python -m repro.obs.report trace.jsonl [metrics.jsonl]`` prints:

* **per-stage latency** — every span name with call counts and
  simulated-latency stats, the Figure-style "where did the time go"
  breakdown;
* **gauge series** — queue depth, cache hit rate, and any other sampled
  series, summarized with an ASCII sparkline;
* **recoveries** — downtime, facts, log records read, writes replayed;
* **fault correlation** — every injector event joined onto the client
  I/O latencies around it: mean/max latency in a window before versus
  after the fault, so a latency cliff points straight at its cause.

All functions also accept in-memory record lists, so tests and
benchmarks render without touching disk.
"""

import argparse

from repro.analysis.reporting import format_table
from repro.obs.export import load_jsonl
from repro.sim.distributions import percentile

#: Client-I/O root span names (the unit of the correlation join).
IO_SPAN_NAMES = ("io.write", "io.read")

_SPARK = " .:-=+*#%@"


def _sparkline(values, width=24):
    if not values:
        return ""
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[1] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def per_stage_table(records):
    """Span-name rollup: calls and simulated-latency stats."""
    groups = {}
    for record in records:
        if record["type"] != "span":
            continue
        groups.setdefault(record["name"], []).append(record)
    rows = []
    for name in sorted(groups):
        spans = groups[name]
        lats = [s["attrs"]["lat"] for s in spans if "lat" in s["attrs"]]
        if lats:
            rows.append([
                name, len(spans),
                sum(lats) * 1e3,
                sum(lats) / len(lats) * 1e6,
                percentile(lats, 0.5) * 1e6,
                percentile(lats, 0.99) * 1e6,
                max(lats) * 1e6,
            ])
        else:
            rows.append([name, len(spans), None, None, None, None, None])
    return format_table(
        ["Stage", "Spans", "Total (ms)", "Mean (us)", "p50 (us)",
         "p99 (us)", "Max (us)"],
        rows,
        title="Per-stage simulated latency (from spans)")


def series_table(metrics_records):
    """Sampled gauge series: shape summary plus a sparkline."""
    rows = []
    for record in metrics_records:
        if record["type"] != "series":
            continue
        points = record["points"]
        values = [value for _time, value in points]
        if not values:
            continue
        rows.append([
            record["name"], len(points),
            min(values), sum(values) / len(values), max(values), values[-1],
            _sparkline(values),
        ])
    return format_table(
        ["Series", "Points", "Min", "Mean", "Max", "Last", "Shape"],
        rows,
        title="Sampled series (sim-time ordered)")


def histogram_table(metrics_records):
    """Latency histograms from a metrics JSONL snapshot."""
    rows = []
    for record in metrics_records:
        if record["type"] != "histogram" or not record.get("count"):
            continue
        rows.append([
            record["name"], record["count"],
            record["mean"] * 1e6, record["p50"] * 1e6,
            record["p99"] * 1e6, record["max"] * 1e6,
        ])
    return format_table(
        ["Histogram", "Count", "Mean (us)", "p50 (us)", "p99 (us)", "Max (us)"],
        rows,
        title="Latency histograms (unified registry)")


_QUEUE_DEPTH_PREFIX = "service.queue_depth."
_TENANT_LATENCY_PREFIX = "service.request.latency."


def service_tenant_table(metrics_records):
    """Per-tenant service-plane view: queue depth + request latency.

    Joins the dynamic per-tenant series (``service.queue_depth.<t>``)
    and histograms (``service.request.latency.<t>``) the front end
    emits into one row per tenant. Returns None when the run carried
    no service plane, so the section disappears from non-service runs.
    Field meanings are documented in docs/SERVICE_PLANE.md.
    """
    depths = {}
    latencies = {}
    for record in metrics_records:
        name = record["name"]
        if record["type"] == "series" \
                and name.startswith(_QUEUE_DEPTH_PREFIX):
            depths[name[len(_QUEUE_DEPTH_PREFIX):]] = record
        elif record["type"] == "histogram" and record.get("count") \
                and name.startswith(_TENANT_LATENCY_PREFIX):
            latencies[name[len(_TENANT_LATENCY_PREFIX):]] = record
    tenants = sorted(set(depths) | set(latencies))
    if not tenants:
        return None
    rows = []
    for tenant in tenants:
        depth = depths.get(tenant)
        values = [value for _time, value in depth["points"]] \
            if depth else []
        latency = latencies.get(tenant)
        rows.append([
            tenant,
            values[-1] if values else None,
            max(values) if values else None,
            _sparkline(values),
            latency["count"] if latency else 0,
            latency["p50"] * 1e6 if latency else None,
            latency["p99"] * 1e6 if latency else None,
        ])
    return format_table(
        ["Tenant", "Queue last", "Queue max", "Depth shape",
         "Requests", "Lat p50 (us)", "Lat p99 (us)"],
        rows,
        title="Service plane per-tenant queues and latency")


def _io_latencies(records):
    """[(start_time, latency)] of every client I/O span, time-ordered."""
    points = [
        (record["start"], record["attrs"]["lat"])
        for record in records
        if record["type"] == "span"
        and record["name"] in IO_SPAN_NAMES
        and "lat" in record["attrs"]
    ]
    points.sort()
    return points


def _window_stats(points, lo, hi):
    window = [lat for time, lat in points if lo <= time < hi]
    if not window:
        return None
    return (len(window), sum(window) / len(window), max(window))


def fault_correlation(records, window=None):
    """Join injector events onto surrounding client-I/O latencies.

    For each ``fault`` event, compares mean/max I/O latency in the
    ``window`` seconds before the fault against the window after it.
    ``window`` defaults to 1/20th of the traced time range.
    """
    points = _io_latencies(records)
    faults = [r for r in records if r["type"] == "event" and r["name"] == "fault"]
    if window is None:
        if points:
            span = points[-1][0] - points[0][0]
            window = max(span / 20.0, 1e-3)
        else:
            window = 1.0
    rows = []
    for fault in faults:
        time = fault["time"]
        attrs = fault["attrs"]
        before = _window_stats(points, time - window, time)
        after = _window_stats(points, time, time + window)
        spike = None
        if before and after and before[1] > 0:
            spike = after[1] / before[1]
        rows.append([
            round(time, 6),
            attrs.get("kind", fault["name"]),
            attrs.get("target", "-"),
            before[0] if before else 0,
            before[1] * 1e6 if before else None,
            after[0] if after else 0,
            after[1] * 1e6 if after else None,
            after[2] * 1e6 if after else None,
            round(spike, 2) if spike is not None else None,
        ])
    return format_table(
        ["Fault t (s)", "Kind", "Target", "IOs before", "Mean before (us)",
         "IOs after", "Mean after (us)", "Max after (us)", "Spike x"],
        rows,
        title="Fault correlation (±%.3f s window around each injector event)"
              % window)


def recovery_table(records):
    """One row per completed ``recovery`` span, or None without one."""
    fields = ("lat", "facts", "log_records_read", "raw_writes")
    rows = [[span["start"]] + [span["attrs"].get(name) for name in fields]
            for span in records if span["type"] == "span"
            and span["name"] == "recovery" and "lat" in span["attrs"]]
    return format_table(["Start (s)", "Downtime (s)", "Facts",
                         "Log records read", "Raw writes replayed"],
                        rows, title="Recoveries") if rows else None


def render_report(trace_records, metrics_records=None, window=None):
    """The full text report over one run's records."""
    sections = [per_stage_table(trace_records)]
    if metrics_records:
        histograms = histogram_table(metrics_records)
        sections.append(histograms)
        sections.append(series_table(metrics_records))
        tenants = service_tenant_table(metrics_records)
        if tenants is not None:
            sections.append(tenants)
    recoveries = recovery_table(trace_records)
    if recoveries is not None:
        sections.append(recoveries)
    sections.append(fault_correlation(trace_records, window=window))
    return "\n\n".join(sections)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__)
    parser.add_argument("trace", help="trace JSONL from repro.obs.export")
    parser.add_argument("metrics", nargs="?", default=None,
                        help="optional metrics JSONL from the same run")
    parser.add_argument("--window", type=float, default=None,
                        help="fault-correlation window in simulated seconds")
    args = parser.parse_args(argv)
    trace_records = load_jsonl(args.trace)
    metrics_records = load_jsonl(args.metrics) if args.metrics else None
    print(render_report(trace_records, metrics_records, window=args.window))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
