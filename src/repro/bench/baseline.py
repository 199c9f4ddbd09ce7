"""Baseline comparison: the perf-regression gate behind ``--check``.

``bench-baseline.json`` commits one value per metric. A ``--check``
run re-measures, then fails when:

* any metric's paper *shape* breaks (direction/band violated), or
* a metric drifts from its baseline value by more than the tolerance
  band, or
* a bench or metric present in the baseline disappears entirely.

Every row is a sim-clock or counted quantity, so one band fits all:
the same seed reproduces each value exactly, and the slack only absorbs
intentional cross-platform float noise. Host wall time is never gated
here; ``benchmarks/perf`` measures it.

New metrics that are not yet in the baseline are reported but never
fatal — you add them by re-running ``--write-baseline``.
"""

import json

#: Relative tolerance band, in percent, for every baseline row.
TOLERANCE_PCT = 10.0

BASELINE_FILENAME = "bench-baseline.json"


def baseline_from_documents(documents):
    """Flatten group documents into the committed baseline form."""
    metrics = {}
    for group in sorted(documents):
        for bench in documents[group]["benches"]:
            for metric in bench["metrics"]:
                key = "%s.%s" % (bench["bench"], metric["metric"])
                metrics[key] = {"value": metric["value"],
                                "unit": metric["unit"]}
    return {
        "schema_version": documents[sorted(documents)[0]]["schema_version"],
        "metrics": metrics,
    }


def write_baseline(baseline, path):
    with open(path, "w") as handle:
        handle.write(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path):
    with open(path) as handle:
        return json.load(handle)


class Deviation:
    """One comparison failure (or informational note)."""

    __slots__ = ("kind", "key", "message", "fatal")

    def __init__(self, kind, key, message, fatal=True):
        self.kind = kind
        self.key = key
        self.message = message
        self.fatal = fatal

    def __repr__(self):
        return "Deviation(%s, %s)" % (self.kind, self.key)

    def render(self):
        marker = "FAIL" if self.fatal else "note"
        return "%s [%s] %s: %s" % (marker, self.kind, self.key, self.message)


def compare(documents, baseline):
    """All deviations between fresh documents and a committed baseline."""
    deviations = []
    fresh = {}
    ran_benches = set()
    for group in sorted(documents):
        for bench in documents[group]["benches"]:
            ran_benches.add(bench["bench"])
            for metric in bench["metrics"]:
                key = "%s.%s" % (bench["bench"], metric["metric"])
                fresh[key] = metric
                if not metric["passed"]:
                    deviations.append(Deviation(
                        "shape", key,
                        "measured %s %s violates the paper shape %s"
                        % (metric["value"], metric["unit"],
                           json.dumps(metric.get("shape"), sort_keys=True)),
                    ))
    base_metrics = baseline.get("metrics", {})
    for key in sorted(base_metrics):
        entry = base_metrics[key]
        metric = fresh.get(key)
        if metric is None:
            # Only fatal when the bench itself ran: a subset run
            # (--quick, --group) legitimately skips whole benches.
            if key.split(".", 1)[0] in ran_benches:
                deviations.append(Deviation(
                    "missing", key, "metric present in baseline but not "
                    "produced by this run"))
            continue
        base_value = entry["value"]
        value = metric["value"]
        if base_value == 0:
            drift_ok = value == 0
            drift_pct = 0.0 if drift_ok else float("inf")
        else:
            drift_pct = abs(value - base_value) / abs(base_value) * 100.0
            drift_ok = drift_pct <= TOLERANCE_PCT
        if not drift_ok:
            deviations.append(Deviation(
                "regression", key,
                "measured %s vs baseline %s (%.1f%% drift, tolerance "
                "%.0f%%)" % (value, base_value, drift_pct, TOLERANCE_PCT),
            ))
    for key in sorted(fresh):
        if key not in base_metrics:
            deviations.append(Deviation(
                "new", key, "metric not in baseline yet (re-run "
                "--write-baseline to adopt it)", fatal=False))
    return deviations


def fatal_deviations(deviations):
    return [deviation for deviation in deviations if deviation.fatal]
