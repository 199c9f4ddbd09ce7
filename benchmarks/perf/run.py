"""Command line of the perf benchmark.

One workload, as the harness in BENCHMARK.json calls it::

    python3 benchmarks/perf/run.py --workload oltp_mixed --seed 7 --seconds 15 --trace 0

prints every metric by name and unit, then one JSON object on the last
line. Without ``--workload`` it runs every workload, untraced then
traced, each in a fresh subprocess, and writes
``bench-artifacts/perf_results.json``. ``--compare A.json B.json`` and
``--selfcheck`` judge two such files against BENCHMARK.json's bounds.
"""

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ARTIFACTS = os.path.join(ROOT, "bench-artifacts")
DEFAULT_SEED = 2015
#: Plays per untraced run: ``--seconds`` over the nominal timed phases of
#: one play (what the frozen op counts take on the baseline box at the
#: parent commit). Tape 0 is played WALL_PLAYS times (its host time is
#: the run's steadiest, and ``rep_spread`` comes from it); every other play
#: is one more tape for the median every metric is taken over.
NOMINAL_PLAY_SECONDS = 2.5
WALL_PLAYS = 3
MIN_PLAYS = WALL_PLAYS + 1
#: The traced run: these, all on tape 0. The traced play's arrays are
#: kept for the per-layer table, so it comes last: arrays left alive
#: slowed the plays after them (seq_ingest: 3.4 s, then 4.7-5.7 s).
TRACED_MODES = ("plain", "obs", "plain", "traced")
#: The process is pinned to these before anything is imported.
PINNED_ENV = {"PYTHONHASHSEED": "0", "REPRO_WORKERS": "0"}


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One workload in this process


def run_rep(workload, c, tape, mode, verify=True):
    """One play of a tape: fresh system, healthy phase, crash -> recover,
    degraded phase, full verify. Host time and counters cover the two
    timed phases and nothing else.

    ``mode`` is "plain", "traced" (benchmark wrappers installed) or
    "obs" (the program's own span tracing switched on). ``verify`` is
    False for a tape's later plays: they must reach the same sim state
    (checked), which the first play has verified.
    """
    from repro.core.telemetry import reset_perf_counters

    from benchmarks.perf import metrics
    from benchmarks.perf.drivers import ArrayDriver, Recorder, ServiceDriver
    from benchmarks.perf.trace import Tracer

    rec = Recorder()
    gc.collect()
    start = time.perf_counter()
    driver_class = ArrayDriver if workload.loop == "closed" else ServiceDriver
    driver = driver_class(workload, c, tape, rec)
    rep = {"mode": mode, "rec": rec, "driver": driver,
           "build_s": time.perf_counter() - start,
           "timed_s": 0.0, "delta": collections.Counter()}
    if mode == "obs":
        driver.enable_obs_tracing()
    gc.collect()
    reset_perf_counters()
    tracer = rep["tracer"] = Tracer(rec) if mode == "traced" else None

    def timed(phase):
        # Recovery builds new arrays, so counters are read per phase.
        before = metrics.counters(driver)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            phase()
        finally:
            rep["timed_s"] += time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        rep["delta"].update(metrics.counters(driver))
        rep["delta"].subtract(before)

    timed(driver.run)
    rep["data_reduction"] = driver.data_reduction()
    if mode == "traced":
        rep["end_state"] = metrics.end_state(driver)
    rep["recovery_sim_s"], rep["recover_wall_s"], rep["raw_writes_replayed"] = \
        driver.recover()
    timed(driver.run_degraded)
    rep["timed_ops"] = rec.attempted
    if mode == "obs":
        rep["obs_spans"] = len(driver.arrays[0].obs.records)
    if verify:
        driver.verify()
    rep["sim"], rep["tails"], rep["samples"] = metrics.sim_metrics(rep)
    rep["wall"] = metrics.wall_metrics([rep])
    return rep


def run_workload(name, seed, seconds, trace, scale):
    """All plays of one workload; returns the result document.

    Untraced, ``--seconds`` buys a number of plays. Tape 0 (sub-seed
    ``seed*64``) is played WALL_PLAYS times, spread over the run, and its
    host-time metrics take each op at the fastest of its plays
    (``metrics.fastest_play``). Every other play is one more tape, and
    every metric is the median over the tapes, so a run says more about
    the code than about one tape. Plays of one tape must agree on every
    sim metric. The play count is a function of ``--seconds`` alone, so
    sim metrics repeat exactly. Traced, TRACED_MODES all run tape 0.
    """
    from benchmarks.perf import metrics
    from benchmarks.perf.workloads import WORKLOADS, constants

    machine = fingerprint()
    workload = WORKLOADS[name]
    c = constants(name, scale)
    if trace:
        schedule = [(0, mode) for mode in TRACED_MODES]
    else:
        plays = max(MIN_PLAYS, int(seconds / NOMINAL_PLAY_SECONDS))
        order, again = [0], WALL_PLAYS - 1
        for index in range(1, plays - again):
            order.append(index)
            if again:
                order.append(0)
                again -= 1
        schedule = [(index, "plain") for index in order + [0] * again]

    def make_tape(index):
        start = time.perf_counter()
        tape = workload.make_tape(seed * 64 + index, c)
        return tape, time.perf_counter() - start

    # Only tape 0 is played again, so only it is kept (peak_rss_mb).
    tape0 = make_tape(0)
    reps = []
    for index, mode in schedule:
        tape, tape_gen_s = make_tape(index) if index else tape0
        rep = run_rep(workload, c, tape, mode,
                      verify=bool(trace or index or not reps))
        rep["tape"] = index
        rep["setup_s"] = tape_gen_s + rep["build_s"]
        if mode != "traced":
            # Only the numbers are kept: one array at a time in memory.
            del rep["driver"]
        reps.append(rep)

    first = [rep for rep in reps if rep["tape"] == 0]
    plain = [rep for rep in first if rep["mode"] == "plain"]
    fastest_s = min(rep["timed_s"] for rep in plain)
    rep_spread = max(rep["timed_s"] for rep in plain) / fastest_s - 1.0
    attempted = sum(rep["rec"].attempted for rep in reps)
    failed = sum(rep["rec"].failed for rep in reps)
    warnings = []
    if any(rep["sim"] != first[0]["sim"] for rep in first):
        warnings.append("sim metrics differ between plays of one tape")

    if trace:
        obs, traced = reps[1], reps[3]
        values = metrics.per_layer(traced, fastest_s, obs, rep_spread,
                                   tape0[1])
        table = [(n, u) for n, u, _better in metrics.PER_LAYER]
        warnings += ["entry point %s no longer exists; its metrics read 0"
                     % label for label in traced["tracer"].missing]
        os.makedirs(ARTIFACTS, exist_ok=True)
        traced["tracer"].write_jsonl(
            os.path.join(ARTIFACTS, "perf_trace_%s.jsonl" % name))
    else:
        others = [rep for rep in reps if rep["tape"]]
        per_tape = [dict(first[0]["sim"], **metrics.wall_metrics(first))] + \
            [dict(rep["sim"], **rep["wall"]) for rep in others]
        values = {key: statistics.median(tape[key] for tape in per_tape)
                  for key in per_tape[0]}
        values["setup_s"] = statistics.median(rep["setup_s"] for rep in reps)
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        values["ok_frac"] = 1.0 - failed / attempted
        table = [(n, u) for n, u, _b, _bound, _clock in metrics.END_TO_END]

    return {
        "workload": name, "why": workload.why, "loop": workload.loop,
        "seed": seed, "trace": trace, "scale": scale,
        "comparable": scale == 1.0, "constants": c,
        "correct": failed == 0 and not warnings,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "errors": [e for rep in reps for e in rep["rec"].errors][:5],
        "warnings": warnings,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in table},
        "samples": reps[0]["samples"],
        "reps": [{"mode": rep["mode"], "tape": rep["tape"],
                  "setup_s": rep["setup_s"],
                  "timed_s": rep["timed_s"], "timed_ops": rep["timed_ops"],
                  "failed": rep["rec"].failed,
                  "recovery_sim_ms": rep["recovery_sim_s"] * 1e3,
                  "raw_writes_replayed": rep["raw_writes_replayed"],
                  **rep["wall"], **rep["sim"], **rep["tails"]} for rep in reps],
        "rep_spread": rep_spread,
        "fingerprint": machine,
    }


def fingerprint():
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": commit, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
        "loadavg_at_start": os.getloadavg()[0],
        **{key: os.environ.get(key) for key in PINNED_ENV},
    }


def print_result(result):
    print("== %s  seed=%d  trace=%d  %s loop  plays of tapes %s  rep_spread=%.3f%s"
          % (result["workload"], result["seed"], result["trace"],
             result["loop"], " ".join(str(rep["tape"]) for rep in result["reps"]),
             result["rep_spread"],
             "" if result["comparable"] else "  [SCALED: not comparable]"))
    for cls, info in result["samples"].items():
        print("   samples %-14s n=%-5d %s" % (cls, info["n"], info.get("tail", "")))
    for name, metric in result["metrics"].items():
        print("   %-34s %16.4f %s" % (name, metric["value"], metric["unit"]))
    print("   crash -> recover straight after the last healthy op, per "
          "play: sim ms %s; raw writes replayed %s"
          % (" ".join("%.1f" % rep["recovery_sim_ms"] for rep in result["reps"]),
             " ".join(str(rep["raw_writes_replayed"]) for rep in result["reps"])))
    print("   attempted=%d failed=%d fail_frac=%.6f correct=%s"
          % (result["attempted"], result["failed"], result["fail_frac"],
             result["correct"]))
    for line in result["errors"] + result["warnings"]:
        print("   ! %s" % line, file=sys.stderr)


# ----------------------------------------------------------------------
# The whole suite, comparison, self-check


def run_suite(seed, seconds, scale, out_path):
    """Every workload, untraced then traced, each in its own process."""
    from benchmarks.perf.workloads import WORKLOADS

    results = {"seed": seed, "seconds": seconds, "scale": scale,
               "comparable": scale == 1.0, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            detail = os.path.join(ARTIFACTS, "perf_%s_trace%d.json" % (name, trace))
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--scale", str(scale), "--out", detail],
                check=True)
            with open(detail) as handle:
                run = json.load(handle)
            entry["per_layer" if trace else "end_to_end"] = {
                key: metric["value"] for key, metric in run["metrics"].items()}
            entry["trace_run" if trace else "run"] = run
        results["workloads"][name] = entry
        results["fingerprint"] = entry["run"]["fingerprint"]
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    print("wrote %s" % out_path)
    return results


def _verdict(was, now, better, bound, unresolved):
    """(verdict, how much worse ``now`` is as a share of ``was``)."""
    worse_by = now - was if better == "lower" else was - now
    if was:
        worse_by /= abs(was)
    elif worse_by:
        worse_by = math.copysign(math.inf, worse_by)
    if unresolved:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return ("improved" if worse_by < -bound else "within bound"), worse_by


def compare(base, new, out=sys.stdout):
    """Judge ``new`` against ``base``; returns the count of 'worse' rows.

    Two files are only compared when both are full-scale runs of the
    same seed and ``--seconds`` (hence the same tapes and repetition
    count); anything else raises ValueError.
    """
    from benchmarks.perf.metrics import END_TO_END, SAME_SEED

    for key in ("seed", "seconds", "scale"):
        if base[key] != new[key]:
            raise ValueError("not comparable: %s is %r in one file and %r in "
                             "the other" % (key, base[key], new[key]))
    if not (base["comparable"] and new["comparable"]):
        raise ValueError("not comparable: scaled-down runs")
    spec = {m["name"]: m for m in _load_spec()["end_to_end"]}
    worse = 0

    def row(workload, metric, was, now, better, bound, unresolved=False):
        nonlocal worse
        verdict, worse_by = _verdict(was, now, better, bound, unresolved)
        worse += verdict == "worse"
        print("%-21s %-26s %-12s %14.4f -> %14.4f  (%+.2f%% worse than base, "
              "bound %.2f%%)" % (workload, metric, verdict, was, now,
                                 100 * worse_by, 100 * bound), file=out)

    for name, entry in base["workloads"].items():
        other = new["workloads"].get(name)
        if other is None:
            print("%-21s missing from the new file" % name, file=out)
            worse += 1
            continue
        spread = max(entry["run"]["rep_spread"], other["run"]["rep_spread"])
        for metric, _unit, better, _bound, clock in END_TO_END:
            bound = spec[metric]["bound"]
            row(name, metric, entry["end_to_end"][metric],
                other["end_to_end"][metric], better, bound,
                unresolved=clock == "wall" and metric != "peak_rss_mb"
                and spread > bound)
        # Same seed, same tapes: these repeat exactly, so they are judged
        # here although the contract cannot gate them across seeds.
        row(name, "failed", entry["run"]["failed"], other["run"]["failed"],
            "lower", 0.0)
        for metric, bound in SAME_SEED:
            row(name, metric, entry["per_layer"][metric],
                other["per_layer"][metric], "lower", bound)
    return worse


def selfcheck(seed, seconds):
    """Two suite runs of the same tree must agree."""
    from benchmarks.perf.metrics import END_TO_END, SAME_SEED

    first = run_suite(seed, seconds, 1.0,
                      os.path.join(ARTIFACTS, "perf_selfcheck_a.json"))
    second = run_suite(seed, seconds, 1.0,
                       os.path.join(ARTIFACTS, "perf_selfcheck_b.json"))
    problems = compare(first, second)
    exact = [("end_to_end", name) for name, _u, _b, _bound, clock in END_TO_END
             if clock == "sim"] + [("per_layer", name) for name, _bound in SAME_SEED]
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]
        for table, name in exact:
            if entry[table][name] != other[table][name]:
                print("sim metric %s differs on %s" % (name, workload))
                problems += 1
    print("selfcheck: %s" % ("ok" if not problems else "%d problems" % problems))
    return 1 if problems else 0


# ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase budget per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply op counts; results are stamped "
                             "non-comparable unless 1")
    parser.add_argument("--out", help="also write the full result JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/perf needs the repo's src/repro beside it",
              file=sys.stderr)
        return 2
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        # Hash randomisation is fixed at interpreter start: start again.
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  dict(os.environ, **PINNED_ENV))
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    if args.compare:
        with open(args.compare[0]) as a, open(args.compare[1]) as b:
            try:
                return 1 if compare(json.load(a), json.load(b)) else 0
            except ValueError as error:
                print(error, file=sys.stderr)
                return 2
    seconds = args.seconds if args.seconds is not None \
        else _load_spec()["run_seconds"]
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    if args.workload is None:
        run_suite(args.seed, seconds, args.scale,
                  args.out or os.path.join(ARTIFACTS, "perf_results.json"))
        return 0

    result = run_workload(args.workload, args.seed, seconds, args.trace,
                          args.scale)
    print_result(result)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
