"""Golden determinism tests: same seed, byte-identical trace.

Two runs of the same seeded workload with tracing on must emit
byte-identical JSONL — timestamps come from the sim clock, ids from a
per-run sequence, and JSON keys are sorted — and both must match the
committed files under ``golden/``, so a change that moves trace bytes
deterministically still fails. With tracing off, the write hot path
must construct zero spans (proved via the ``obs-span`` perf counter
that ``Observability.begin`` bumps unconditionally).

The workload's payloads are random, so every cblock is stored raw and
the zlib version cannot move the golden files. After a deliberate
change to what the trace records, regenerate them from
``_run_workload(11, tracing=True)`` with fresh perf counters.
"""

import os

import pytest

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.faults.chaos import ChaosHarness
from repro.obs.export import metrics_text, trace_text
from repro.perf import PERF, reset_perf_counters
from repro.sim.rand import RandomStream
from repro.units import KIB


def _run_workload(seed, tracing):
    """A fixed mixed workload; returns the array."""
    array = PurityArray.create(ArrayConfig.small(seed=seed))
    if tracing:
        array.obs.enable_tracing()
    array.create_volume("v0", 512 * KIB)
    stream = RandomStream(seed).fork("golden-workload")
    for op in range(24):
        offset = (op % 8) * 8 * KIB
        if op % 3 == 2:
            array.read("v0", offset, 4 * KIB)
        else:
            payload = stream.randbytes(4 * KIB)
            array.write("v0", offset, payload)
        if tracing and op % 6 == 5:
            array.observe_sample()
    array.run_gc()
    array.scrub()
    return array


def test_same_seed_same_trace_bytes():
    first = trace_text(_run_workload(11, tracing=True).obs)
    second = trace_text(_run_workload(11, tracing=True).obs)
    assert first  # non-trivial: the workload produced spans
    assert first == second


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def test_trace_matches_the_committed_golden_files():
    obs = _run_workload(11, tracing=True).obs
    assert trace_text(obs) == _golden("trace.jsonl")
    assert metrics_text(obs) == _golden("metrics.jsonl")


def test_trace_covers_the_span_taxonomy():
    obs = _run_workload(11, tracing=True).obs
    names = {record["name"] for record in obs.records}
    assert {"io.write", "io.read", "nvram-commit", "dedup", "compress",
            "segio-append", "gc.run", "scrub.run"} <= names


def test_metrics_snapshot_is_deterministic():
    # Snapshots merge the process-global perf counters, so each run
    # gets a clean slate — exactly what a fresh process would see.
    first = metrics_text(_run_workload(11, tracing=True).obs)
    reset_perf_counters()
    second = metrics_text(_run_workload(11, tracing=True).obs)
    assert "io.write.latency" in first
    assert first == second


def test_tracing_off_allocates_no_spans():
    reset_perf_counters()
    _run_workload(11, tracing=False)
    assert PERF.counter("obs-span") == 0
    assert PERF.counter("obs-event") == 0


def test_registry_still_records_with_tracing_off():
    array = _run_workload(11, tracing=False)
    registry = array.obs.metrics
    assert registry.histogram("io.write.latency").count > 0
    assert registry.histogram("io.read.latency").count > 0


@pytest.mark.slow
def test_chaos_same_seed_byte_identical_trace(tmp_path):
    def run(directory):
        harness = ChaosHarness(seed=5, total_ops=60, maintenance_every=20,
                               tracing=True)
        harness.run()
        return harness.export_obs(str(directory))

    first_trace, first_metrics = run(tmp_path / "a")
    reset_perf_counters()
    second_trace, second_metrics = run(tmp_path / "b")
    with open(first_trace, "rb") as fh:
        a = fh.read()
    with open(second_trace, "rb") as fh:
        b = fh.read()
    assert a  # faults and recoveries produced a real trace
    assert a == b
    # The fault events from the injector appear in the span stream.
    assert b'"name":"fault"' in a


@pytest.mark.slow
def test_chaos_trace_survives_failover_as_one_trace():
    harness = ChaosHarness(seed=3, total_ops=60, maintenance_every=20,
                           tracing=True)
    harness.run()
    assert harness.obs is harness.target.array.obs  # one handle across crashes
    if harness.report.outages:
        assert harness.obs.spans("recovery")
