"""Baseline comparator: the logic behind the --check regression gate."""

import copy

from repro.bench import baseline as baseline_mod
from repro.bench.registry import BenchSpec
from repro.bench.schema import (
    Metric,
    bench_record,
    group_document,
    shape_equal,
    shape_min,
)


def _documents(speedup=3.5, errors=0):
    spec = BenchSpec("demo", "paper_shapes", "demo bench", lambda: [],
                     "benchmarks/bench_demo.py", False)
    metrics = [
        Metric("speedup", speedup, "x", shape_min(2.0)),
        Metric("errors", errors, "count", shape_equal(0)),
    ]
    record = bench_record(spec, metrics)
    return {"paper_shapes": group_document("paper_shapes", [record], 2015)}


def _fatal_kinds(deviations):
    return sorted(d.kind for d in baseline_mod.fatal_deviations(deviations))


def test_round_trip_is_clean(tmp_path):
    documents = _documents()
    baseline = baseline_mod.baseline_from_documents(documents)
    path = tmp_path / "bench-baseline.json"
    baseline_mod.write_baseline(baseline, str(path))
    reloaded = baseline_mod.load_baseline(str(path))
    assert reloaded == baseline
    assert baseline_mod.compare(documents, reloaded) == []


def test_baseline_flattens_to_dotted_keys():
    baseline = baseline_mod.baseline_from_documents(_documents())
    assert set(baseline["metrics"]) == {"demo.speedup", "demo.errors"}
    assert baseline["metrics"]["demo.speedup"]["value"] == 3.5


def test_injected_regression_is_fatal():
    baseline = baseline_mod.baseline_from_documents(_documents(speedup=3.5))
    fresh = _documents(speedup=2.5)  # 28.6% drift > 10% tolerance
    deviations = baseline_mod.compare(fresh, baseline)
    assert _fatal_kinds(deviations) == ["regression"]
    assert "demo.speedup" in deviations[0].render()


def test_drift_inside_tolerance_passes():
    baseline = baseline_mod.baseline_from_documents(_documents(speedup=3.5))
    assert baseline_mod.compare(_documents(speedup=3.4), baseline) == []


def test_shape_break_is_fatal_even_without_baseline_drift():
    # speedup 1.5 violates the >=2 paper shape; baseline agrees with it,
    # so only the shape check can catch the break.
    broken = _documents(speedup=1.5)
    baseline = baseline_mod.baseline_from_documents(broken)
    assert _fatal_kinds(baseline_mod.compare(broken, baseline)) == ["shape"]


def test_zero_baseline_requires_exact_zero():
    baseline = baseline_mod.baseline_from_documents(_documents(errors=0))
    deviations = baseline_mod.compare(_documents(errors=1), baseline)
    kinds = _fatal_kinds(deviations)
    assert "regression" in kinds  # 0 -> 1 is an infinite relative drift
    assert "shape" in kinds


def test_missing_metric_fatal_only_when_its_bench_ran():
    documents = _documents()
    baseline = baseline_mod.baseline_from_documents(documents)
    baseline["metrics"]["demo.vanished"] = {"value": 1.0, "unit": "x"}
    deviations = baseline_mod.compare(documents, baseline)
    assert _fatal_kinds(deviations) == ["missing"]
    # A subset run that skipped the bench entirely is legitimate.
    assert baseline_mod.compare({}, baseline) == []
    other = copy.deepcopy(documents)
    other["paper_shapes"]["benches"][0]["bench"] = "unrelated"
    assert _fatal_kinds(baseline_mod.compare(other, baseline)) == []


def test_new_metric_is_reported_but_not_fatal():
    documents = _documents()
    baseline = baseline_mod.baseline_from_documents(documents)
    del baseline["metrics"]["demo.errors"]
    deviations = baseline_mod.compare(documents, baseline)
    assert [d.kind for d in deviations] == ["new"]
    assert baseline_mod.fatal_deviations(deviations) == []

