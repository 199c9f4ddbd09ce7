"""Tests for the ``python -m repro.obs.report`` renderer.

Exercises the real pipeline: a faulted chaos run with tracing on is
exported to JSONL, loaded back, and rendered — the per-stage latency
table and the fault-correlation view must both materialize.
"""

import pytest

from repro.faults.chaos import ChaosHarness
from repro.obs import report as R
from repro.obs.export import load_jsonl
from repro.perf import reset_perf_counters


@pytest.fixture(autouse=True)
def _clean_perf():
    reset_perf_counters()
    yield
    reset_perf_counters()


@pytest.fixture(scope="module")
def faulted_run(tmp_path_factory):
    harness = ChaosHarness(seed=5, total_ops=60, maintenance_every=20,
                           tracing=True)
    harness.run()
    directory = tmp_path_factory.mktemp("obs")
    trace_path, metrics_path = harness.export_obs(str(directory))
    return harness, trace_path, metrics_path


def test_per_stage_table_renders(faulted_run):
    _harness, trace_path, _metrics = faulted_run
    records = load_jsonl(trace_path)
    table = R.per_stage_table(records)
    assert "io.write" in table
    assert "nvram-commit" in table
    assert "p99 (us)" in table


def test_fault_correlation_joins_faults_onto_io(faulted_run):
    harness, trace_path, _metrics = faulted_run
    records = load_jsonl(trace_path)
    assert harness.injector.faults_fired > 0
    view = R.fault_correlation(records)
    # Every fired fault kind shows up as a row in the view.
    for kind in harness.plan.kinds_used():
        assert kind in view
    assert "Mean before (us)" in view


def test_series_and_histogram_tables(faulted_run):
    _harness, _trace, metrics_path = faulted_run
    records = load_jsonl(metrics_path)
    series = R.series_table(records)
    assert "device.queue_depth" in series
    histograms = R.histogram_table(records)
    assert "io.write.latency" in histograms


def test_render_report_composes_all_sections(faulted_run):
    _harness, trace_path, metrics_path = faulted_run
    text = R.render_report(load_jsonl(trace_path), load_jsonl(metrics_path))
    assert "Per-stage simulated latency" in text
    assert "Fault correlation" in text
    assert "Sampled series" in text


def test_recovery_table_lists_each_recovery(faulted_run):
    harness, trace_path, _metrics = faulted_run
    table = R.recovery_table(load_jsonl(trace_path))
    assert harness.report.crashes > 0
    assert "Log records read" in table
    # Title, header and rule, then one row per crash -> recover.
    assert len(table.splitlines()) == 3 + harness.report.crashes
    assert R.recovery_table([]) is None


def test_cli_main(faulted_run, capsys):
    _harness, trace_path, metrics_path = faulted_run
    assert R.main([trace_path, metrics_path]) == 0
    out = capsys.readouterr().out
    assert "Per-stage simulated latency" in out
    assert "Fault correlation" in out


def test_service_tenant_table_renders(tmp_path):
    from repro.core.array import PurityArray
    from repro.core.config import ArrayConfig
    from repro.obs.export import write_metrics
    from repro.service import QosSpec, ServiceConfig, ServiceFrontend

    array = PurityArray.create(ArrayConfig.small(seed=13))
    frontend = ServiceFrontend(array, ServiceConfig())
    frontend.register_tenant("crm", QosSpec(priority="gold"))
    frontend.create_volume("crm", "crm-db", 64 * 1024)
    frontend.submit_write("crm-db", 0, b"\x11" * 4096)
    frontend.observe_sample()
    frontend.run()
    frontend.observe_sample()
    metrics_path = str(tmp_path / "metrics.jsonl")
    write_metrics(frontend.obs, metrics_path)
    records = load_jsonl(metrics_path)
    table = R.service_tenant_table(records)
    assert "Service plane per-tenant" in table
    assert "crm" in table
    assert "Lat p99 (us)" in table
    # The section composes into the full report only for service runs.
    assert "Service plane per-tenant" in R.render_report([], records)


def test_service_tenant_table_absent_without_service_metrics(faulted_run):
    _harness, _trace, metrics_path = faulted_run
    records = load_jsonl(metrics_path)
    assert R.service_tenant_table(records) is None
    assert "Service plane" not in R.render_report([], records)


def test_sparkline_shapes():
    assert R._sparkline([]) == ""
    flat = R._sparkline([1.0, 1.0, 1.0])
    assert len(flat) == 3 and len(set(flat)) == 1
    ramp = R._sparkline(list(range(10)))
    assert ramp[0] == R._SPARK[0] and ramp[-1] == R._SPARK[-1]
