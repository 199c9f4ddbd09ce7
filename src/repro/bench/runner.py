"""The deterministic benchmark runner.

Runs registered benches one at a time, each under freshly reset
:mod:`repro.perf` counters, and assembles the schema-versioned group
documents the CLI writes to the repo root. Nothing here reads the host
clock: two same-seed runs produce byte-identical documents.

Benches that trace an array can hand their span records to
:func:`obs_stage_rows`, which rolls them into the same per-stage
*simulated*-latency table ``python -m repro.obs.report`` prints — those
numbers are sim-clock-derived and fully deterministic, so they ride
along in the JSON unconditionally.
"""

import json
import os

from repro.bench.schema import (
    SCHEMA_VERSION,
    bench_record,
    group_document,
)
from repro.bench.seeds import ROOT_SEED
from repro.perf import reset_perf_counters
from repro.sim.distributions import percentile

#: group -> repo-root artifact filename.
GROUP_FILES = {
    "paper_shapes": "BENCH_paper_shapes.json",
    "chaos": "BENCH_chaos.json",
    "cluster": "BENCH_cluster.json",
    "service": "BENCH_service.json",
}


def obs_stage_rows(records):
    """Span-name rollup of a trace: deterministic sim-latency stats.

    The structured twin of ``repro.obs.report.per_stage_table`` —
    same grouping, but returning JSON-ready rows instead of text.
    """
    groups = {}
    for record in records:
        if record["type"] != "span":
            continue
        groups.setdefault(record["name"], []).append(record)
    rows = {}
    for name in sorted(groups):
        spans = groups[name]
        latencies = [span["attrs"]["lat"] for span in spans
                     if "lat" in span["attrs"]]
        row = {"spans": len(spans)}
        if latencies:
            row["total_ms"] = round(sum(latencies) * 1e3, 6)
            row["p50_us"] = round(percentile(latencies, 0.5) * 1e6, 3)
            row["p99_us"] = round(percentile(latencies, 0.99) * 1e6, 3)
        rows[name] = row
    return rows


class CollectedBench:
    """The outcome of one bench run, pre-serialization."""

    __slots__ = ("spec", "metrics", "obs_stages")

    def __init__(self, spec, metrics, obs_stages):
        self.spec = spec
        self.metrics = metrics
        self.obs_stages = obs_stages

    @property
    def passed(self):
        return all(metric.passed for metric in self.metrics)

    def record(self):
        return bench_record(self.spec, self.metrics,
                            obs_stages=self.obs_stages)


def run_bench(spec):
    """Run one bench under clean perf counters; returns CollectedBench.

    The collector may return a bare metric list, or a
    ``(metrics, obs_records)`` pair when it traced an array and wants
    the per-stage sim-latency table attached.
    """
    reset_perf_counters()
    result = spec.collect()
    obs_stages = None
    if isinstance(result, tuple):
        metrics, obs_records = result
        obs_stages = obs_stage_rows(obs_records) or None
    else:
        metrics = result
    if not metrics:
        raise ValueError("bench %r returned no metrics" % spec.name)
    return CollectedBench(spec, metrics, obs_stages)


def run_specs(specs, progress=None):
    """Run many specs; returns group -> document mapping."""
    by_group = {}
    for spec in specs:
        if progress is not None:
            progress(spec)
        collected = run_bench(spec)
        by_group.setdefault(spec.group, []).append(collected.record())
    return {
        group: group_document(group, records, ROOT_SEED)
        for group, records in sorted(by_group.items())
    }


def document_text(document):
    """Canonical serialized form: sorted keys, 2-space indent, final \\n."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_documents(documents, out_dir):
    """Write each group document to its repo-root artifact file."""
    paths = []
    os.makedirs(out_dir, exist_ok=True)
    for group in sorted(documents):
        path = os.path.join(out_dir, GROUP_FILES[group])
        with open(path, "w") as handle:
            handle.write(document_text(documents[group]))
        paths.append(path)
    return paths


def load_document(path):
    """Read one BENCH_*.json back (no validation; see schema module)."""
    with open(path) as handle:
        return json.load(handle)


def load_committed_documents(root):
    """group -> document for every artifact present under ``root``."""
    documents = {}
    for group, filename in sorted(GROUP_FILES.items()):
        path = os.path.join(root, filename)
        if os.path.exists(path):
            documents[group] = load_document(path)
    return documents


def summary_lines(documents):
    """Human one-liners for the CLI: per bench pass/fail and counts."""
    lines = []
    for group in sorted(documents):
        document = documents[group]
        lines.append("group %s (schema v%d): %d benches"
                     % (group, SCHEMA_VERSION, len(document["benches"])))
        for bench in document["benches"]:
            metrics = bench["metrics"]
            failed = [m["metric"] for m in metrics if not m["passed"]]
            status = "ok" if not failed else "FAIL(%s)" % ",".join(failed)
            lines.append("  %-34s %2d metrics  %s"
                         % (bench["bench"], len(metrics), status))
    return lines
