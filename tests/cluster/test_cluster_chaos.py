"""Fast-lane cluster chaos: seeded array-kill schedules, replayable."""

import pytest

from repro.cluster import ClusterChaosHarness
from repro.cluster.config import HEARTBEAT_INTERVAL, REROUTE_BOUND
from repro.faults.plan import (
    ARRAY_KILL,
    ARRAY_REVIVE,
    DRIVE_FAIL,
    NET_PARTITION,
    FaultPlan,
)

#: Seeds whose generated schedules include a whole-array kill+revive
#: (surveyed once; the generator is deterministic so this stays true).
KILL_SEEDS = (1, 2, 6)


def run_seed(seed, **kwargs):
    kwargs.setdefault("num_arrays", 3)
    kwargs.setdefault("total_ops", 120)
    kwargs.setdefault("maintenance_every", 40)
    return ClusterChaosHarness(seed, **kwargs).run()


def assert_clean(report):
    assert report.violations == []
    assert report.data_loss is None
    assert report.ops == report.reads + report.writes


@pytest.mark.parametrize("seed", KILL_SEEDS)
def test_array_kill_schedule_completes_clean(seed):
    report = run_seed(seed, total_ops=240)
    assert_clean(report)
    assert report.kills >= 1
    assert report.revives >= 1
    assert report.failovers >= 1
    # Rebalances actually streamed bytes, not just flipped pointers.
    assert report.volumes_moved > 0
    assert report.bytes_copied > 0


def test_same_seed_replays_identical_fault_trace():
    first = run_seed(KILL_SEEDS[0], total_ops=240)
    second = run_seed(KILL_SEEDS[0], total_ops=240)
    assert first.trace == second.trace
    assert first.trace  # the schedule fired faults to compare
    kinds = {kind for _op, _t, kind, _target, _detail in first.trace}
    assert ARRAY_KILL in kinds
    assert ARRAY_REVIVE in kinds


def test_generated_cluster_plans_cover_the_new_fault_kinds():
    kinds = set()
    for seed in range(12):
        plan = FaultPlan.generate_cluster(
            seed, 240, ["array0", "array1", "array2"],
            drive_names=["shelf0/ssd00"], maintenance_every=40,
        )
        kinds.update(plan.kinds_used())
    assert {ARRAY_KILL, ARRAY_REVIVE, NET_PARTITION,
            DRIVE_FAIL} <= kinds


def test_reads_are_tagged_with_the_serving_nodes_ladder_state():
    report = run_seed(11, total_ops=240)
    assert_clean(report)
    # Drive failures on member arrays push their ladders off "normal";
    # the oracle byte-checks are attributed per state.
    assert report.drive_fails >= 1
    assert sum(report.reads_by_state.values()) >= report.reads
    assert "normal" in report.reads_by_state


def test_reroute_times_respect_the_configured_bound():
    report = run_seed(KILL_SEEDS[1], total_ops=240)
    assert_clean(report)
    bound = REROUTE_BOUND + HEARTBEAT_INTERVAL
    assert report.failovers == len(report.reroute_times)
    assert all(t <= bound for t in report.reroute_times)


def test_chaos_run_exports_obs_artifacts(tmp_path):
    harness = ClusterChaosHarness(KILL_SEEDS[0], num_arrays=3,
                                  total_ops=80, maintenance_every=40,
                                  tracing=True)
    report = harness.run()
    assert report.violations == []
    trace_path, metrics_path = harness.export_obs(str(tmp_path))
    assert (tmp_path / "cluster-chaos_trace.jsonl").exists()
    assert (tmp_path / "cluster-chaos_metrics.jsonl").exists()
    assert trace_path.endswith("cluster-chaos_trace.jsonl")
    assert metrics_path.endswith("cluster-chaos_metrics.jsonl")
