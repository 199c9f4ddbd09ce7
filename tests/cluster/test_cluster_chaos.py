"""Fast-lane cluster chaos: seeded array-kill schedules (replay and the
oracle's own failure are tested over both targets in test_chaos.py)."""

import os

import pytest

from repro.cluster.chaos import ClusterTarget
from repro.faults.chaos import ChaosHarness
from repro.faults.plan import (
    ARRAY_KILL,
    ARRAY_REVIVE,
    DRIVE_FAIL,
    NET_PARTITION,
    FaultPlan,
)

from tests.conftest import assert_chaos_clean


def run_seed(seed):
    return ChaosHarness(seed, target=ClusterTarget, total_ops=240).run()


@pytest.mark.parametrize("seed", range(8))
def test_array_kill_schedule_completes_clean(seed):
    """Every generated schedule of seeds 0-7 kills an array; each rides
    it out with zero acknowledged-write loss."""
    report = run_seed(seed)
    assert_chaos_clean(report, ClusterTarget)
    assert report.counts[ARRAY_KILL] >= 1
    assert report.counts[ARRAY_REVIVE] == report.counts[ARRAY_KILL]
    assert report.outages  # the client failed over
    # Rebalances actually streamed bytes, not just flipped pointers.
    assert report.counts["volumes_moved"] > 0
    assert report.counts["bytes_copied"] > 0


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
    report = run_seed(11)
    assert_chaos_clean(report, ClusterTarget)
    # Drive failures on member arrays push their ladders off "normal";
    # the oracle byte-checks are attributed per state.
    assert report.counts[DRIVE_FAIL] >= 1
    assert "normal" in report.reads_by_state


def test_reroute_times_respect_the_configured_bound():
    report = run_seed(2)
    assert_chaos_clean(report, ClusterTarget)  # bounds every failover
    assert report.outages


def test_chaos_run_exports_obs_artifacts(tmp_path):
    harness = ChaosHarness(1, target=ClusterTarget, total_ops=80,
                           tracing=True)
    assert harness.run().violations == []
    paths = harness.export_obs(str(tmp_path), prefix="cluster-chaos")
    assert paths == (str(tmp_path / "cluster-chaos_trace.jsonl"),
                     str(tmp_path / "cluster-chaos_metrics.jsonl"))
    assert all(os.path.getsize(path) for path in paths)
