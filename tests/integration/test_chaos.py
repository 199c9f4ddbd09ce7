"""Chaos verification: seeded fault schedules against an array or a cluster.

The acceptance contract (see DESIGN.md "Fault model"):

* any schedule inside the fault budget completes with **zero invariant
  violations** — byte-exact reads, every outage inside its bound, and
  on an array scrubber-repaired damage and full protection restored;
* the same seed replays an **identical fault trace**;
* schedules beyond the budget are **detected** as data loss, never
  returned as wrong bytes, and the oracle fails on bytes it never acked.
"""

import pytest

from repro.cluster.chaos import ClusterTarget
from repro.core.array import PurityArray
from repro.errors import DataLossError, UncorrectableError
from repro.faults.chaos import ArrayTarget, ChaosHarness, InvariantViolation
from repro.faults.plan import (
    ARRAY_KILL,
    ARRAY_REVIVE,
    CRASH,
    DRIVE_FAIL,
    NET_PARTITION,
    STALL_STORM,
    FaultPlan,
    FaultSpec,
)

from tests.conftest import assert_chaos_clean

DRIVE_NAMES = ["shelf0/ssd%02d" % index for index in range(11)]


def run_seed(seed, **kwargs):
    return ChaosHarness(seed=seed, **kwargs).run()


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_survivable_schedule_completes_clean(seed):
    report = run_seed(seed)
    assert_chaos_clean(report)
    assert report.faults_fired > 0
    assert report.counts["scrub_passes"] > 0


@pytest.mark.parametrize("target,seed,total_ops,kinds", [
    (ArrayTarget, 7, 200, {DRIVE_FAIL}),
    (ClusterTarget, 1, 240, {ARRAY_KILL, ARRAY_REVIVE, NET_PARTITION}),
    (ClusterTarget, 2, 240, {ARRAY_KILL, ARRAY_REVIVE, NET_PARTITION}),
], ids=["array-7", "cluster-1", "cluster-2"])
def test_same_seed_replays_identical_fault_trace(target, seed, total_ops,
                                                 kinds):
    first = run_seed(seed, target=target, total_ops=total_ops)
    second = run_seed(seed, target=target, total_ops=total_ops)
    assert_chaos_clean(first, target)
    assert first.trace == second.trace
    assert first.outages == second.outages
    fired = {kind for _op, _t, kind, _target, _detail in first.trace}
    assert fired == set(first.kinds_used)  # every planned kind fired
    assert kinds <= fired


def test_crash_heavy_schedule_recovers_within_client_timeout():
    """Every injected controller crash must recover inside 30 s."""
    for seed in range(12):
        plan = FaultPlan.generate(seed, 200, DRIVE_NAMES, crash_budget=3)
        if plan.kinds_used().count("crash") or "nvram-torn" in plan.kinds_used():
            report = run_seed(seed, plan=plan)
            assert_chaos_clean(report)
            if report.counts["crashes"]:
                assert len(report.outages) == report.counts["crashes"]
                return
    pytest.fail("no generated schedule fired a crash")


def test_beyond_budget_loss_is_detected_never_wrong_bytes():
    """Three concurrent shard losses: reads raise, they never lie."""
    harness = ChaosHarness(seed=2024, plan=FaultPlan(), total_ops=0)
    array, size = harness.target.array, harness.record_size
    expected = [harness._payload(slot, slot)
                for slot in range(harness.record_slots)]
    for slot, payload in enumerate(expected):
        array.write("chaos0", slot * size, payload)
    array.drain()
    array.datapath.drop_caches()
    # Five dead drives guarantee every 9-wide stripe loses >= 3 shards.
    for name in DRIVE_NAMES[:5]:
        array.fail_drive(name)
    for slot, payload in enumerate(expected):
        with pytest.raises((DataLossError, UncorrectableError)):
            data, _latency = array.read("chaos0", slot * size, size)
            assert data == payload, "wrong bytes returned for slot %d" % slot


def test_beyond_budget_schedule_reports_data_loss():
    """A harness-driven over-budget run ends with detected loss."""
    plan = FaultPlan([FaultSpec(30, DRIVE_FAIL, name)
                      for name in DRIVE_NAMES[:5]])
    report = run_seed(
        77, plan=plan, total_ops=60, record_size=16384, record_slots=8,
        maintenance_every=1000, expect_data_loss=True,
    )
    assert report.data_loss is not None
    # Loss surfaces either on the read path (not enough shards) or on
    # the write path (the degradation ladder pinned the array
    # read-only) — both are *detected* loss, never wrong bytes.
    assert ("shards readable" in report.data_loss
            or "read-only" in report.data_loss)
    assert report.ladder_states[-1] == "read-only"
    assert report.violations == []  # loss was detected, nothing lied


@pytest.mark.slow
def test_ten_plus_seeded_schedules_mixing_four_fault_kinds():
    """The headline acceptance run: >= 10 distinct schedules, each
    mixing >= 4 fault kinds, all finishing with zero violations."""
    qualifying = [
        seed for seed in range(40)
        if len(FaultPlan.generate(seed, 200, DRIVE_NAMES).kinds_used()) >= 4
    ][:12]
    assert len(qualifying) >= 10
    traces = set()
    for seed in qualifying:
        report = run_seed(seed)
        assert_chaos_clean(report)
        assert len(report.kinds_used) >= 4, seed
        traces.add(tuple(report.trace))
    # Distinct seeds produced genuinely distinct schedules.
    assert len(traces) == len(qualifying)


# ----------------------------------------------------------------------
# Degraded-mode coverage: the byte-exactness oracle must hold in every
# ladder state the schedule visits, and the report must prove which
# states were actually exercised (a run that never leaves "normal"
# would vacuously pass).


def test_invariants_hold_across_ladder_states():
    plan = FaultPlan()
    plan.add(FaultSpec(10, DRIVE_FAIL, DRIVE_NAMES[0]))
    plan.add(FaultSpec(25, STALL_STORM, DRIVE_NAMES[3], (0.05,)))
    report = run_seed(11, plan=plan, total_ops=120, maintenance_every=30)
    assert_chaos_clean(report)
    # The run visited reduced-parity and came back via rebuild.
    assert "reduced-parity" in report.ladder_states
    assert "normal" in report.ladder_states
    # Reads were byte-checked while degraded, not just while healthy.
    assert report.reads_by_state.get("reduced-parity", 0) > 0
    assert report.reads_by_state.get("normal", 0) > 0


def test_generated_schedules_tag_reads_with_their_ladder_state():
    """Every read a chaos run issues is attributed to exactly one
    ladder state, whatever the schedule does."""
    for seed in range(6):
        plan = FaultPlan.generate(seed, 150, DRIVE_NAMES, crash_budget=2)
        assert_chaos_clean(run_seed(seed, plan=plan, total_ops=150))


def test_stall_storm_schedule_fires_hedges_and_stays_clean():
    plan = FaultPlan([FaultSpec(at_op, STALL_STORM, DRIVE_NAMES[at_op // 15],
                                (0.05,)) for at_op in range(10, 70, 15)])
    harness = ChaosHarness(seed=19, plan=plan, total_ops=100,
                           maintenance_every=50)
    report = harness.run()
    assert_chaos_clean(report)
    array = harness.target.array
    hedge = array.segreader.hedge
    assert hedge.fired > 0
    assert hedge.won + hedge.lost == hedge.fired
    # Only a drive the plan stormed may end the run suspect: reads that
    # stall behind the array's own flushes are not evidence.
    assert set(array.health.suspects()) <= {spec.target for spec in plan}


# ----------------------------------------------------------------------
# The oracle can fail: a target that returns stale or invented bytes is
# caught, on either backend.


@pytest.mark.parametrize("target", [ArrayTarget, ClusterTarget],
                         ids=["array", "cluster"])
def test_a_read_of_the_bytes_before_the_last_write_is_a_violation(
        target, monkeypatch):
    harness = ChaosHarness(seed=3, plan=FaultPlan(), total_ops=60,
                           target=target)
    backend = harness.target.backend
    read, write, before = backend.read, backend.write, {}

    def remembering_write(volume, offset, data):
        before[volume, offset] = read(volume, offset, len(data))[0]
        write(volume, offset, data)

    def stale_read(volume, offset, length):
        data, latency = read(volume, offset, length)
        return before.get((volume, offset), data), latency

    monkeypatch.setattr(backend, "write", remembering_write)
    monkeypatch.setattr(backend, "read", stale_read)
    with pytest.raises(InvariantViolation) as caught:
        harness.run()
    assert caught.value.invariant == "byte-exact-read"
    assert "bytes matching none of the 1 acknowledged" in caught.value.detail
    assert harness.report.violations == [
        ("byte-exact-read", caught.value.detail)]


def test_a_crash_ambiguous_record_reading_a_third_value_is_a_violation(
        monkeypatch):
    """A crash mid-write leaves the record two legal values; a read of
    anything else is caught."""
    plan = FaultPlan().add(FaultSpec(0, CRASH, "datapath.post-commit"))
    harness = ChaosHarness(seed=4, plan=plan, total_ops=60)
    read = PurityArray.read

    def garbled_read(array, volume, offset, length):
        data, latency = read(array, volume, offset, length)
        if any(len(values) == 2 and harness._locate(record) == (volume, offset)
               for record, values in harness._possible.items()):
            data = b"\x5a" * length
        return data, latency

    monkeypatch.setattr(PurityArray, "read", garbled_read)
    with pytest.raises(InvariantViolation) as caught:
        harness.run()
    assert caught.value.invariant == "byte-exact-read"
    assert "none of the 2 acknowledged candidates" in caught.value.detail
