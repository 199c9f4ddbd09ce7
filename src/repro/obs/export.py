"""Deterministic JSONL exporters for traces and metric snapshots.

Every record is one line of ``json.dumps(..., sort_keys=True)`` with
fixed separators, so two runs from the same seed produce byte-identical
files: every metric is a sim-time number or an event count, and the
program never reads the host clock.
"""

import json
import os


def _dumps(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def trace_lines(obs):
    """The trace as a list of JSONL strings (no trailing newlines)."""
    return [_dumps(record) for record in obs.records]


def trace_text(obs):
    """The whole trace as one JSONL string (the golden-test unit)."""
    lines = trace_lines(obs)
    return "\n".join(lines) + ("\n" if lines else "")


def metrics_lines(obs):
    """Metric snapshot as JSONL records, one per metric."""
    snapshot = obs.metrics.snapshot()
    lines = []
    for name in sorted(snapshot["counters"]):
        lines.append(_dumps({"type": "counter", "name": name,
                             "value": snapshot["counters"][name]}))
    for name in sorted(snapshot["gauges"]):
        lines.append(_dumps({"type": "gauge", "name": name,
                             "value": snapshot["gauges"][name]}))
    for name in sorted(snapshot["histograms"]):
        lines.append(_dumps({"type": "histogram", "name": name,
                             **snapshot["histograms"][name]}))
    for name in sorted(snapshot["series"]):
        lines.append(_dumps({"type": "series", "name": name,
                             "points": snapshot["series"][name]}))
    return lines


def metrics_text(obs):
    lines = metrics_lines(obs)
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace(obs, path):
    """Write the trace JSONL; returns the path."""
    with open(path, "w") as handle:
        handle.write(trace_text(obs))
    return path


def write_metrics(obs, path):
    """Write the metrics JSONL; returns the path."""
    with open(path, "w") as handle:
        handle.write(metrics_text(obs))
    return path


def dump_run(obs, directory, prefix="obs"):
    """Write ``<prefix>_trace.jsonl`` + ``<prefix>_metrics.jsonl``.

    Returns (trace_path, metrics_path) — the artifacts the CI chaos
    lane uploads and ``python -m repro.obs.report`` consumes.
    """
    os.makedirs(directory, exist_ok=True)
    trace_path = os.path.join(directory, "%s_trace.jsonl" % prefix)
    metrics_path = os.path.join(directory, "%s_metrics.jsonl" % prefix)
    write_trace(obs, trace_path)
    write_metrics(obs, metrics_path)
    return trace_path, metrics_path


def load_jsonl(path):
    """Read a JSONL file back into a list of records."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
