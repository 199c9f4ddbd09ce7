"""Smoke test of the perf benchmark itself (not collected by tier-1).

Run with ``python -m pytest benchmarks/perf -q`` from the repo root.
Everything runs at ``--scale 0.05``: the numbers mean nothing, the
plumbing is what is checked.
"""

import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.perf import metrics, run  # noqa: E402
from benchmarks.perf.drivers import ArrayDriver, Recorder  # noqa: E402
from benchmarks.perf.trace import LAYERS, Tracer  # noqa: E402
from benchmarks.perf.workloads import WORKLOADS, constants  # noqa: E402

SCALE = 0.05
SEED = 7
#: On BENCHMARK.json's workloads no op may fail; on this one ops do.
UNGATED = "snap_clone_churn_full"


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def results():
    """Every workload, untraced twice and traced once, in this process."""
    return {
        name: {
            "plain": run.run_workload(name, SEED, 0, 0, SCALE),
            "again": run.run_workload(name, SEED, 0, 0, SCALE),
            "traced": run.run_workload(name, SEED, 0, 1, SCALE),
        }
        for name in WORKLOADS
    }


def test_tables_match_benchmark_json(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values() if w.name != UNGATED]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [m[:4] for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER


def test_printed_names_equal_benchmark_json(spec, results):
    for runs in results.values():
        assert list(runs["plain"]["metrics"]) == \
            [m["name"] for m in spec["end_to_end"]]
        assert list(runs["traced"]["metrics"]) == \
            [m["name"] for m in spec["per_layer"]]


def test_runs_are_correct_and_stamped_non_comparable(results):
    for name, runs in results.items():
        for result in runs.values():
            assert result["attempted"] > 0
            assert result["comparable"] is False
            assert not result["warnings"], result["warnings"]
            if name != UNGATED:
                assert result["correct"] and result["failed"] == 0, \
                    (name, result["errors"])
                assert result["trace"] or \
                    result["metrics"]["ok_frac"]["value"] == 1.0


def test_sim_metrics_repeat_exactly(results):
    """Across two runs, and (via ``correct``) across the plays of tape 0:
    three in an untraced run; plain, traced and obs-traced in a traced one."""
    sim = [m[0] for m in metrics.END_TO_END if m[4] == "sim"]
    for name, runs in results.items():
        for metric in sim:
            assert runs["plain"]["metrics"][metric] == \
                runs["again"]["metrics"][metric], (name, metric)
        assert {rep["mode"] for rep in runs["traced"]["reps"]} == \
            {"plain", "traced", "obs"}


def test_layer_self_time_fits_in_the_timed_wall(results):
    for name, runs in results.items():
        values = runs["traced"]["metrics"]
        traced_s = next(rep["timed_s"] for rep in runs["traced"]["reps"]
                        if rep["mode"] == "traced")
        total_ms = sum(values["%s.self_ms" % layer]["value"] for layer in LAYERS)
        assert 0 < total_ms <= traced_s * 1e3, name
        assert 0 <= values["bench.untraced_share"]["value"] < 1, name


def _small_oltp():
    workload = WORKLOADS["oltp_mixed"]
    c = constants("oltp_mixed", SCALE)
    rec = Recorder()
    return ArrayDriver(workload, c, workload.make_tape(SEED, c), rec), rec


def test_generator_wrapper_preserves_scan_output():
    driver, rec = _small_oltp()
    relation = driver.array.tables.address_map
    expected = list(relation.scan())
    tracer = Tracer(rec).install()
    try:
        assert list(relation.scan()) == expected
        for _fact in relation.scan():  # abandoned after one item
            break
    finally:
        tracer.uninstall()
    assert not tracer.missing
    scans = [span for span in tracer.spans if span[0] == "Relation.scan"]
    assert scans[0][7] == len(expected)
    assert list(relation.scan()) == expected  # originals are back
    assert len(tracer.spans) == len(scans)


def test_injected_wrong_byte_is_a_failed_op():
    driver, rec = _small_oltp()
    real_read = driver.array.read

    def corrupting_read(*args, **kwargs):
        data, latency = real_read(*args, **kwargs)
        return bytes([data[0] ^ 0xFF]) + data[1:], latency

    driver.array.read = corrupting_read
    driver.run()
    reads = sum(1 for op in driver.tape.ops if op[0] == "read")
    assert rec.failed == reads and rec.attempted == len(driver.tape.ops)


def test_a_raising_op_is_counted_and_the_run_continues():
    driver, rec = _small_oltp()
    driver.tape.ops.insert(0, ("read", "no-such-volume", 0, 4096))
    driver.run()
    assert rec.failed == 1 and rec.attempted == len(driver.tape.ops)


def test_fastest_play_takes_each_op_at_its_fastest():
    def play(op_s, timed_s):
        rec = Recorder()
        rec.op_ns = rec.io_ns = [("write", seconds * 1e9) for seconds in op_s]
        return {"rec": rec, "timed_s": timed_s}

    # Two plays of one tape; a burst slowed op 1 of the first and op 0 of
    # the second; each spent some time between ops.
    timed_s, io = metrics.fastest_play([play([1, 5], 6.5), play([4, 2], 6.25)])
    assert timed_s == pytest.approx(1 + 2 + 0.25)
    assert io["write"] == pytest.approx(3e9)


def _suite_doc(ops_per_s=100.0, spread=0.01, failed=0, **top):
    """A results file with one workload, as ``run_suite`` writes it."""
    end_to_end = dict.fromkeys((m[0] for m in metrics.END_TO_END), 1.0)
    end_to_end["wall_ops_per_s"] = ops_per_s
    return dict(
        {"seed": 7, "seconds": 10, "scale": 1.0, "comparable": True,
         "workloads": {"oltp_mixed": {
             "run": {"rep_spread": spread, "failed": failed},
             "end_to_end": end_to_end,
             "per_layer": dict.fromkeys((m[0] for m in metrics.SAME_SEED), 0.0),
         }}}, **top)


def _compare(base, new):
    out = io.StringIO()
    return run.compare(base, new, out), out.getvalue()


def test_compare_names_worse_improved_and_unresolved():
    worse, text = _compare(_suite_doc(), _suite_doc(ops_per_s=50.0))
    assert worse == 1 and "worse" in text and "within bound" in text
    worse, text = _compare(_suite_doc(), _suite_doc(ops_per_s=200.0))
    assert worse == 0 and "improved" in text
    # A repetition spread above the bound decides before the change does.
    worse, text = _compare(_suite_doc(spread=0.9), _suite_doc(ops_per_s=50.0))
    assert worse == 0 and "unresolved" in text


def test_compare_counts_any_new_failed_op_as_worse():
    worse, text = _compare(_suite_doc(), _suite_doc(failed=1))
    assert worse == 1 and "failed" in text
    assert _compare(_suite_doc(failed=3), _suite_doc(failed=3))[0] == 0


def test_compare_refuses_files_that_are_not_comparable():
    for other in (_suite_doc(seed=8), _suite_doc(seconds=5),
                  _suite_doc(scale=0.05, comparable=False)):
        with pytest.raises(ValueError):
            _compare(_suite_doc(), other)
    scaled = _suite_doc(scale=0.05, comparable=False)
    with pytest.raises(ValueError):
        _compare(scaled, scaled)


# ----------------------------------------------------------------------
# Known at baseline: three defects of the parent commit that the oracle
# catches, that snap_clone_churn_full reports as measured, and that the
# contract's snap_clone_churn leaves out. One reproduction each; they turn
# into XPASS when a later src/ change fixes them.


def _churn_failures(seeds, drain, **overrides):
    """Failed ops of run -> [drain] -> crash -> recover -> full verify."""
    workload = WORKLOADS["snap_clone_churn"]
    failed = 0
    for seed in seeds:
        c = dict(constants("snap_clone_churn"), **overrides)
        rec = Recorder()
        driver = ArrayDriver(workload, c, workload.make_tape(seed, c), rec)
        driver.run()
        if drain:
            driver.array.drain()
        driver.recover()
        driver.verify()
        failed += rec.failed
    return failed


@pytest.mark.xfail(reason="known at baseline: GC resurrects unmapped blocks",
                   strict=False)
def test_known_unmap_then_gc_returns_stale_bytes():
    assert _churn_failures((1, 2), True, unmap_kib=64) == 0


@pytest.mark.xfail(reason="known at baseline: GC breaks writes that inline "
                          "dedup split (any write above 4 KiB)", strict=False)
def test_known_gc_after_writes_above_4k_returns_wrong_bytes():
    assert _churn_failures((1,), True, write_kib=[8, 8], record_kib=8) == 0


@pytest.mark.xfail(reason="known at baseline: an unmap not yet drained is "
                          "lost by crash -> recover (no GC involved)",
                   strict=False)
def test_known_unmap_then_crash_returns_wrong_bytes():
    assert _churn_failures((3,), False, unmap_kib=64, gc_after_round=0) == 0
