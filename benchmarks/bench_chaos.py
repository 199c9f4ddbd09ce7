"""Chaos-harness benchmark: availability under seeded fault schedules.

Quantifies what the chaos tests assert: per-seed fault mix, recovery
downtimes versus the 30-second client timeout, repair work done, and
the throughput cost of running a workload under faults compared to the
same workload fault-free.
"""

from benchmarks.conftest import RESULTS_DIR, emit
from repro.analysis.reporting import format_table
from repro.bench import (
    Metric,
    bench_seed,
    register,
    shape_equal,
    shape_max,
    shape_min,
)
from repro.core.ha import CLIENT_TIMEOUT_SECONDS
from repro.faults.chaos import ChaosHarness
from repro.faults.plan import FaultPlan
from repro.obs.export import load_jsonl
from repro.obs.report import fault_correlation, per_stage_table

SEEDS = tuple(bench_seed("chaos.sweep"))
TOTAL_OPS = 200


def run_chaos(seed, plan=None):
    harness = ChaosHarness(seed=seed, plan=plan, total_ops=TOTAL_OPS)
    start = harness.target.array.clock.now
    report = harness.run()
    elapsed = harness.target.array.clock.now - start
    return report, elapsed


def _run_sweep():
    return [(seed,) + run_chaos(seed) for seed in SEEDS]


def _run_traced():
    harness = ChaosHarness(seed=bench_seed("chaos.traced"),
                           total_ops=TOTAL_OPS, tracing=True)
    harness.run()
    return harness


@register("chaos", group="chaos",
          title="Chaos harness: availability under seeded fault schedules")
def collect():
    results = _run_sweep()
    throughput_seed = bench_seed("chaos.throughput")
    quiet_report, quiet_elapsed = run_chaos(throughput_seed,
                                            plan=FaultPlan())
    chaos_report, chaos_elapsed = run_chaos(throughput_seed)
    quiet_rate = quiet_report.ops / quiet_elapsed
    chaos_rate = chaos_report.ops / chaos_elapsed
    traced = _run_traced()
    trace_events = [r for r in traced.obs.records
                    if r["type"] == "event" and r["name"] == "fault"]
    metrics = [
        Metric("sweep_max_downtime",
               max(report.max_outage for _s, report, _e in results), "s",
               shape_max(CLIENT_TIMEOUT_SECONDS,
                         paper="inside the 30 s client timeout")),
        Metric("sweep_violations",
               sum(len(report.violations) for _s, report, _e in results),
               "violations", shape_equal(0, paper="no invariant broken")),
        Metric("sweep_faults_fired",
               sum(report.faults_fired for _s, report, _e in results),
               "faults", shape_min(len(SEEDS),
                                   paper="every schedule injects faults")),
        Metric("chaos_ops_completed", chaos_report.ops, "ops",
               shape_equal(TOTAL_OPS, paper="every op completes")),
        Metric("fault_free_vs_chaos_rate", quiet_rate / chaos_rate, "x",
               shape_min(1.0, paper="faults cost time, never service")),
        Metric("trace_events_match_faults",
               len(trace_events) == traced.report.faults_fired, "",
               shape_equal(1, paper="every fault lands in the trace")),
    ]
    return metrics, traced.obs.records


def test_chaos_schedule_survival(once):
    results = once(_run_sweep)
    rows = []
    for seed, report, _elapsed in results:
        rows.append([
            seed,
            report.faults_fired,
            ",".join(k.split("-")[0] for k in report.kinds_used),
            report.counts["crashes"],
            round(report.max_outage, 3),
            report.counts["drives_replaced"],
            report.counts["segments_rebuilt"],
            report.counts["scrub_passes"],
            len(report.violations),
        ])
    emit("chaos_schedules", format_table(
        ["Seed", "Faults", "Kinds", "Crashes", "Max downtime (s)",
         "Drives replaced", "Segments rebuilt", "Scrubs", "Violations"],
        rows,
        title="Seeded chaos schedules (%d ops each; client timeout %.0f s)"
              % (TOTAL_OPS, CLIENT_TIMEOUT_SECONDS)))
    for seed, report, _elapsed in results:
        assert report.violations == [], seed
        assert report.data_loss is None, seed
        assert report.max_outage < CLIENT_TIMEOUT_SECONDS


def test_chaos_throughput_cost(once):
    """The workload still makes progress under faults: simulated ops/s
    with the injector firing versus the identical fault-free workload."""

    def run():
        seed = bench_seed("chaos.throughput")
        quiet_report, quiet_elapsed = run_chaos(seed, plan=FaultPlan())
        chaos_report, chaos_elapsed = run_chaos(seed)
        return quiet_report, quiet_elapsed, chaos_report, chaos_elapsed

    quiet_report, quiet_elapsed, chaos_report, chaos_elapsed = once(run)
    quiet_rate = quiet_report.ops / quiet_elapsed
    chaos_rate = chaos_report.ops / chaos_elapsed
    rows = [
        ["fault-free", quiet_report.ops, round(quiet_elapsed, 3),
         round(quiet_rate, 1), 0, 0.0],
        ["under chaos", chaos_report.ops, round(chaos_elapsed, 3),
         round(chaos_rate, 1), chaos_report.faults_fired,
         round(chaos_report.max_outage, 3)],
    ]
    emit("chaos_throughput_cost", format_table(
        ["Schedule", "Ops", "Sim time (s)", "Ops/s (sim)", "Faults",
         "Max downtime (s)"],
        rows, title="Workload progress with and without fault injection"))
    assert quiet_report.violations == []
    assert chaos_report.violations == []
    # Faults cost time (recovery, retries, reconstruction) but the
    # array keeps serving: the chaos run completes every operation.
    assert chaos_report.ops == quiet_report.ops == TOTAL_OPS
    assert chaos_rate > 0


def test_chaos_fault_correlation(once):
    """One traced schedule: export the observability JSONL artifacts
    and render the fault-correlation view joining injector events onto
    the surrounding client-I/O latencies."""

    harness = once(_run_traced)
    assert harness.report.violations == []
    assert harness.report.faults_fired > 0
    trace_path, metrics_path = harness.export_obs(
        RESULTS_DIR, prefix="chaos_obs")
    trace = load_jsonl(trace_path)
    emit("chaos_obs_stages", per_stage_table(trace))
    emit("chaos_fault_correlation", fault_correlation(trace))
    # Every fired fault appears as an event in the exported trace.
    events = [r for r in trace
              if r["type"] == "event" and r["name"] == "fault"]
    assert len(events) == harness.report.faults_fired


# ----------------------------------------------------------------------
# Degraded-mode scenarios (ISSUE 7): hedged-read tail latency under a
# stall storm, and rebuild backpressure against the foreground SLO.

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import STALL_STORM, FaultSpec
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB

STALL_READS = 600
STALL_SLOTS = 32
STALL_RECORD = 16 * KIB
#: A storm lands every 40 reads on a rotating drive and lasts long
#: enough that an unhedged victim eats several 10 ms stalls.
STORM_EVERY = 40
STORM_DURATION = 0.25


def _percentile(latencies, fraction):
    """Exact nearest-rank percentile (the tail is the whole point)."""
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[rank]


def _stall_storm_run(hedge_reads):
    """Zipf reads through rotating single-drive stall storms."""
    seed = bench_seed("chaos.stall_storm")
    config = ArrayConfig.small(seed=seed, hedge_reads=hedge_reads)
    array = PurityArray.create(config)
    array.create_volume("v0", 2 * MIB)
    data_stream = RandomStream(seed).fork("stall-data")
    payloads = {}
    for slot in range(STALL_SLOTS):
        payload = data_stream.randbytes(STALL_RECORD)
        payloads[slot] = payload
        array.write("v0", slot * STALL_RECORD, payload)
    array.drain()
    names = sorted(array.drives)
    plan = FaultPlan()
    for index, at_op in enumerate(range(0, STALL_READS, STORM_EVERY)):
        plan.add(FaultSpec(at_op, STALL_STORM, names[index % len(names)],
                           (STORM_DURATION,)))
    injector = FaultInjector(plan, clock=array.clock)
    injector.attach(array)
    read_stream = RandomStream(seed).fork("stall-reads")
    latencies = []
    wrong = 0
    for op in range(STALL_READS):
        injector.advance_to_op(op)
        array.datapath.drop_caches()  # every read pays the drive visit
        slot = read_stream.zipf_index(STALL_SLOTS)
        data, latency = array.read("v0", slot * STALL_RECORD, STALL_RECORD)
        if data != payloads[slot]:
            wrong += 1
        latencies.append(latency)
        if (op + 1) % STORM_EVERY == 0:
            # Reads advance the sim clock by mere milliseconds, so
            # without this idle gap the 0.25 s storms pile up until
            # most of the array is stalling and reconstruction has no
            # calm sources left. One gap per window keeps storms
            # one-at-a-time, which is the tail-latency regime hedging
            # is built for.
            array.clock.advance(STORM_DURATION)
    return array, latencies, wrong


def _stall_storm_pair():
    """(hedged run, unhedged run) over the identical seeded workload."""
    return _stall_storm_run(True), _stall_storm_run(False)


#: Enough data that a drive failure degrades a dozen-plus segments —
#: the hot phase can only repair a few of them before the SLO throttle
#: bites, leaving real debt for the calm phase to drain.
REBUILD_SLOTS = 192
REBUILD_STORM = 30.0
#: The SLO sits above the drives' intrinsic 8 ms GC-stall tail (a calm
#: array can meet it) but below the storm's stacked stalls, so only the
#: fault pushes the governor over the line. Tight burst so the hot
#: phase visibly defers rebuild work.
REBUILD_CONFIG = dict(hedge_reads=False, rebuild_slo_p99=0.012,
                      rebuild_burst=2)


def _rebuild_throttle_run():
    """Drive failure + stall storm: rebuild must yield to foreground
    latency, then drain its debt once the storm passes."""
    seed = bench_seed("chaos.rebuild_throttle")
    config = ArrayConfig.small(seed=seed, **REBUILD_CONFIG)
    array = PurityArray.create(config)
    array.create_volume("v0", 4 * MIB)
    stream = RandomStream(seed).fork("rebuild-data")
    for slot in range(REBUILD_SLOTS):
        array.write("v0", slot * STALL_RECORD,
                    stream.randbytes(STALL_RECORD))
    array.drain()
    names = sorted(array.drives)
    failed = names[0]
    array.fail_drive(failed)

    # Hot phase: a long storm keeps foreground p99 over the SLO while
    # rebuild passes compete with client reads.
    plan = FaultPlan()
    plan.add(FaultSpec(0, STALL_STORM, names[1], (REBUILD_STORM,)))
    plan.add(FaultSpec(0, STALL_STORM, names[2], (REBUILD_STORM,)))
    injector = FaultInjector(plan, clock=array.clock)
    injector.attach(array)
    governor = array.rebuild_governor
    hot_started = array.clock.now
    hot_rebuilt = 0
    for op in range(64):
        injector.advance_to_op(op)
        array.datapath.drop_caches()
        array.read("v0", (op % REBUILD_SLOTS) * STALL_RECORD, STALL_RECORD)
        if op % 8 == 7:
            hot_rebuilt += array.rebuild()
    hot = {
        "p99": governor.foreground_p99(),
        "throttled": governor.throttled,
        "granted": governor.granted,
        "deferred": governor.deferred,
        "rebuilt": hot_rebuilt,
        "seconds": array.clock.now - hot_started,
    }

    # Calm phase: wait out the storm, replace the dead slot, let fast
    # reads flush the SLO window, and drain the repair debt at the full
    # rate (each pass advances the sim clock so bucket tokens accrue).
    array.replace_drive(failed)
    array.clock.advance(REBUILD_STORM + 1.0)
    for op in range(governor._window_size):
        array.datapath.drop_caches()
        array.read("v0", (op % REBUILD_SLOTS) * STALL_RECORD, STALL_RECORD)
    calm_started = array.clock.now
    calm_rebuilt = 0
    passes = 0
    while array.degrade.degraded_segments and passes < 200:
        array.clock.advance(0.25)
        calm_rebuilt += array.rebuild()
        passes += 1
    array.rebuild()  # the settling pass that observes "nothing degraded"
    calm = {
        "p99": governor.foreground_p99(),
        "throttled": governor.throttled,
        "granted": governor.granted - hot["granted"],
        "deferred": governor.deferred - hot["deferred"],
        "rebuilt": calm_rebuilt,
        "seconds": array.clock.now - calm_started,
    }
    return array, hot, calm


@register("chaos_degraded", group="chaos",
          title="Degraded modes: hedged-read tail latency and rebuild "
                "backpressure")
def collect_degraded():
    (hedged_array, hedged, hedged_wrong), (plain_array, plain, plain_wrong) \
        = _stall_storm_pair()
    hedge = hedged_array.segreader.hedge
    p999_improvement = (_percentile(plain, 0.999)
                        / _percentile(hedged, 0.999))
    throttle_array, hot, calm = _rebuild_throttle_run()
    metrics = [
        Metric("stall_p999_improvement", p999_improvement, "x",
               shape_min(3.0, paper="hedging cuts the stall-storm tail")),
        Metric("stall_p99_hedged_ms", _percentile(hedged, 0.99) * 1e3, "ms",
               shape_max(_percentile(plain, 0.99) * 1e3,
                         paper="hedged p99 never above unhedged")),
        Metric("stall_hedges_fired", hedge.fired, "hedges",
               shape_min(1, paper="the storm actually triggered hedges")),
        Metric("stall_hedges_won", hedge.won, "hedges",
               shape_min(1, paper="reconstruction beat a stalled read")),
        Metric("stall_hedge_win_rate",
               hedge.won / hedge.fired if hedge.fired else 0.0, ""),
        Metric("stall_wrong_bytes", hedged_wrong + plain_wrong, "reads",
               shape_equal(0, paper="hedging never changes bytes")),
        Metric("rebuild_throttle_engaged", hot["throttled"], "",
               shape_equal(1, paper="p99 over SLO throttles rebuild")),
        Metric("rebuild_deferred_under_slo", hot["deferred"], "segments",
               shape_min(1, paper="rebuild yields to foreground I/O")),
        Metric("rebuild_debt_after_drain",
               len(throttle_array.degrade.degraded_segments), "segments",
               shape_equal(0, paper="debt fully drained post-storm")),
        Metric("rebuild_final_ladder_state",
               throttle_array.degrade.state == "normal", "",
               shape_equal(1, paper="repair walks the ladder back down")),
    ]
    return metrics, hedged_array.obs.records


def test_stall_storm_tail_latency(once):
    """p50/p99/p99.9 read latency through rotating stall storms, with
    and without hedged reads, plus the hedge outcome accounting."""
    (hedged_array, hedged, hedged_wrong), (plain_array, plain, plain_wrong) \
        = once(_stall_storm_pair)
    hedge = hedged_array.segreader.hedge
    rows = []
    for label, latencies, array in (
        ("hedging on", hedged, hedged_array),
        ("hedging off", plain, plain_array),
    ):
        policy = array.segreader.hedge
        rows.append([
            label,
            round(_percentile(latencies, 0.50) * 1e3, 3),
            round(_percentile(latencies, 0.99) * 1e3, 3),
            round(_percentile(latencies, 0.999) * 1e3, 3),
            policy.fired,
            policy.won,
            policy.wasted,
        ])
    emit("chaos_stall_storm", format_table(
        ["Mode", "p50 (ms)", "p99 (ms)", "p99.9 (ms)", "Hedges",
         "Won", "Wasted reads"],
        rows,
        title="Read tail latency under rotating stall storms "
              "(%d reads, storm every %d)" % (STALL_READS, STORM_EVERY)))
    assert hedged_wrong == plain_wrong == 0
    assert hedge.fired > 0
    assert _percentile(plain, 0.999) / _percentile(hedged, 0.999) >= 3.0


def test_rebuild_backpressure(once):
    """Rebuild throughput yields under a foreground-latency SLO breach
    and drains its repair debt once latencies recover."""
    array, hot, calm = once(_rebuild_throttle_run)
    rows = []
    for label, phase in (("storm (over SLO)", hot),
                         ("recovered", calm)):
        rows.append([
            label,
            round(phase["p99"] * 1e3, 3),
            "yes" if phase["throttled"] else "no",
            phase["granted"],
            phase["deferred"],
            phase["rebuilt"],
            round(phase["rebuilt"] / phase["seconds"], 2)
            if phase["seconds"] else 0.0,
        ])
    emit("chaos_rebuild_backpressure", format_table(
        ["Phase", "Foreground p99 (ms)", "Throttled", "Grants (cum)",
         "Deferrals (cum)", "Segments rebuilt", "Rebuild rate (seg/s)"],
        rows,
        title="Rebuild backpressure against a %.1f ms foreground p99 SLO"
              % (REBUILD_CONFIG["rebuild_slo_p99"] * 1e3)))
    assert hot["throttled"]
    assert hot["deferred"] >= 1
    assert not calm["throttled"]
    assert array.degrade.degraded_segments == frozenset()
    assert array.degrade.state == "normal"
