"""Hot-path perf-regression harness: seed kernels vs optimized kernels.

Measures, with one harness and one fixed seed, the kernels the hot-path
pass replaced and the end-to-end pipeline built from them:

* GF(256): masked exp/log reference vs ``bytes.translate`` (mul, addmul);
* Reed-Solomon encode: seed allocating encode vs translate-table encode
  vs the batched ``encode_stripes`` entry point the segio flush uses;
* end-to-end write/read throughput of a dedup-heavy workload on the
  seed pipeline (re-instated via ``repro.seedpath.seed_pipeline``) and
  on the optimized pipeline.

Run directly to (re)generate the checked-in numbers::

    PYTHONPATH=src python -m benchmarks.bench_hotpath --json BENCH_hotpath.json

The pytest entry runs the same measurements once and asserts the
speedups hold with slack (regression guard, not a race).
"""

import argparse
import json
import time

import numpy as np

from repro.bench import Metric, bench_seed, register, shape_max, shape_min
from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.telemetry import format_perf_report, perf_report, reset_perf_counters
from repro.erasure.gf256 import GF256
from repro.erasure.reed_solomon import ReedSolomon
from repro.seedpath import seed_pipeline
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB

SEED = bench_seed("hotpath.kernels")  # the paper's year; all else derives

#: Microbench shapes: one segio flush worth of shard data.
SHARD_LENGTH = 16 * KIB
MICRO_REPEATS = 40

#: End-to-end workload: dedup-heavy streaming writes. 64 KiB writes
#: (two cblocks each) keep the pipeline kernels — hash, dedup, compress,
#: RS — the dominant cost rather than per-write commit bookkeeping,
#: matching the paper's VM/database streaming workloads.
E2E_WRITES = 256
E2E_WRITE_SIZE = 64 * KIB


def _best_of(runs, func):
    """Best-of-N wall time in seconds (shields against scheduler noise)."""
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Microbenchmarks


def bench_gf256():
    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 256, size=SHARD_LENGTH, dtype=np.uint8)
    accumulator = rng.integers(0, 256, size=SHARD_LENGTH, dtype=np.uint8)
    scalars = list(range(2, 2 + MICRO_REPEATS))

    def run_mul_reference():
        for scalar in scalars:
            GF256.mul_array_reference(data, scalar)

    def run_mul_table():
        for scalar in scalars:
            GF256.mul_array(data, scalar)

    def run_addmul_reference():
        for scalar in scalars:
            GF256.addmul_array_reference(accumulator, data, scalar)

    def run_addmul_table():
        for scalar in scalars:
            GF256.addmul_array(accumulator, data, scalar)

    mul_ref = _best_of(3, run_mul_reference)
    mul_table = _best_of(3, run_mul_table)
    addmul_ref = _best_of(3, run_addmul_reference)
    addmul_table = _best_of(3, run_addmul_table)
    return {
        "array_bytes": SHARD_LENGTH,
        "repeats": MICRO_REPEATS,
        "mul_array": {
            "reference_ms": mul_ref * 1e3,
            "table_ms": mul_table * 1e3,
            "speedup": mul_ref / mul_table,
        },
        "addmul_array": {
            "reference_ms": addmul_ref * 1e3,
            "table_ms": addmul_table * 1e3,
            "speedup": addmul_ref / addmul_table,
        },
    }


def bench_rs_encode():
    code = ReedSolomon(7, 2)
    rng = np.random.default_rng(SEED)
    matrix = rng.integers(
        0, 256, size=(code.data_shards, SHARD_LENGTH), dtype=np.uint8
    )
    shards = [matrix[row].tobytes() for row in range(code.data_shards)]

    def run_reference():
        for _ in range(MICRO_REPEATS):
            code.encode_reference(shards)

    def run_optimized():
        for _ in range(MICRO_REPEATS):
            code.encode(shards)

    def run_stripes():
        for _ in range(MICRO_REPEATS):
            code.encode_stripes(matrix)

    reference = _best_of(3, run_reference)
    optimized = _best_of(3, run_optimized)
    stripes = _best_of(3, run_stripes)
    return {
        "geometry": "7+2",
        "shard_bytes": SHARD_LENGTH,
        "repeats": MICRO_REPEATS,
        "reference_ms": reference * 1e3,
        "optimized_ms": optimized * 1e3,
        "stripes_ms": stripes * 1e3,
        "speedup": reference / optimized,
        "stripes_speedup": reference / stripes,
    }


# ----------------------------------------------------------------------
# End-to-end pipeline


def _e2e_chunks():
    """Deterministic dedup-heavy write mix: ~60% duplicate content.

    VM images and databases — the paper's workloads — are dominated by
    repeated content, which is exactly where the seed per-sector
    verify/extend path pays the most.
    """
    stream = RandomStream(SEED)
    unique = [stream.randbytes(E2E_WRITE_SIZE) for _ in range(E2E_WRITES)]
    chunks = []
    for index in range(E2E_WRITES):
        roll = index % 5
        if roll == 0 or index < 10:
            chunks.append(unique[index])  # fresh entropy
        elif roll in (1, 3):
            chunks.append(chunks[index - 5])  # exact duplicate
        elif roll == 2:
            shifted = chunks[index - 5]
            chunks.append(shifted[2 * KIB :] + shifted[: 2 * KIB])  # misaligned dup
        elif index % 10 == 4:
            pattern = bytes([index % 256, (index * 3) % 256])
            chunks.append(pattern * (E2E_WRITE_SIZE // 2))  # compressible
        else:
            chunks.append(chunks[index - 10])  # distant duplicate
    return chunks


def run_e2e_once():
    """One full write+read pass; returns wall-clock timings."""
    chunks = _e2e_chunks()
    config = ArrayConfig.small(num_drives=11, drive_capacity=64 * MIB, seed=SEED)
    array = PurityArray.create(config)
    array.create_volume("v", E2E_WRITES * E2E_WRITE_SIZE)
    start = time.perf_counter()
    for index, chunk in enumerate(chunks):
        array.write("v", index * E2E_WRITE_SIZE, chunk)
    array.drain()
    write_seconds = time.perf_counter() - start
    array.datapath.drop_caches()
    start = time.perf_counter()
    for index in range(E2E_WRITES):
        array.read("v", index * E2E_WRITE_SIZE, E2E_WRITE_SIZE)
    read_seconds = time.perf_counter() - start
    total_bytes = E2E_WRITES * E2E_WRITE_SIZE
    segio_pool = array.segwriter.buffer_pool
    read_pool = array.datapath.read_pool
    return {
        "write_seconds": write_seconds,
        "write_mb_per_s": total_bytes / MIB / write_seconds,
        "read_seconds": read_seconds,
        "read_mb_per_s": total_bytes / MIB / read_seconds,
        "data_reduction": round(array.reduction_report().data_reduction, 3),
        "segio_pool": dict(segio_pool.counters(),
                           hit_rate=round(segio_pool.hit_rate, 4)),
        "read_pool": dict(read_pool.counters(),
                          hit_rate=round(read_pool.hit_rate, 4)),
    }


def bench_e2e():
    optimized = min(
        (run_e2e_once() for _ in range(3)), key=lambda r: r["write_seconds"]
    )
    with seed_pipeline():
        seed = min(
            (run_e2e_once() for _ in range(3)), key=lambda r: r["write_seconds"]
        )
    return {
        "writes": E2E_WRITES,
        "write_bytes": E2E_WRITE_SIZE,
        "seed": seed,
        "optimized": optimized,
        "write_speedup": seed["write_seconds"] / optimized["write_seconds"],
        "read_speedup": seed["read_seconds"] / optimized["read_seconds"],
    }


def run_all():
    reset_perf_counters()
    results = {
        "seed": SEED,
        "gf256": bench_gf256(),
        "rs_encode": bench_rs_encode(),
        "e2e": bench_e2e(),
    }
    results["perf_report"] = perf_report()
    return results


def summarize(results):
    lines = [
        "GF(256) mul_array      %6.2fx  (%.2f ms -> %.2f ms)" % (
            results["gf256"]["mul_array"]["speedup"],
            results["gf256"]["mul_array"]["reference_ms"],
            results["gf256"]["mul_array"]["table_ms"]),
        "GF(256) addmul_array   %6.2fx  (%.2f ms -> %.2f ms)" % (
            results["gf256"]["addmul_array"]["speedup"],
            results["gf256"]["addmul_array"]["reference_ms"],
            results["gf256"]["addmul_array"]["table_ms"]),
        "RS encode (7+2)        %6.2fx  (%.2f ms -> %.2f ms)" % (
            results["rs_encode"]["speedup"],
            results["rs_encode"]["reference_ms"],
            results["rs_encode"]["optimized_ms"]),
        "RS encode_stripes      %6.2fx  (%.2f ms -> %.2f ms)" % (
            results["rs_encode"]["stripes_speedup"],
            results["rs_encode"]["reference_ms"],
            results["rs_encode"]["stripes_ms"]),
        "e2e write path         %6.2fx  (%.1f MB/s -> %.1f MB/s)" % (
            results["e2e"]["write_speedup"],
            results["e2e"]["seed"]["write_mb_per_s"],
            results["e2e"]["optimized"]["write_mb_per_s"]),
        "e2e read path          %6.2fx  (%.1f MB/s -> %.1f MB/s)" % (
            results["e2e"]["read_speedup"],
            results["e2e"]["seed"]["read_mb_per_s"],
            results["e2e"]["optimized"]["read_mb_per_s"]),
    ]
    return "\n".join(lines)


@register("hotpath", group="hotpath",
          title="Hot-path kernels: seed vs optimized, wall-clock")
def collect():
    results = run_all()
    wall = {"deterministic": False}
    return [
        Metric("rs_encode_speedup", results["rs_encode"]["speedup"], "x",
               shape_min(2.0, paper="table-driven RS encode"), **wall),
        Metric("rs_encode_stripes_speedup",
               results["rs_encode"]["stripes_speedup"], "x",
               shape_min(2.0, paper="batched segio-flush encode"), **wall),
        Metric("gf256_mul_speedup",
               results["gf256"]["mul_array"]["speedup"], "x",
               shape_min(1.5, paper="bytes.translate GF(256) multiply"), **wall),
        Metric("e2e_write_speedup", results["e2e"]["write_speedup"], "x",
               shape_min(1.2, paper="whole write path gains"), **wall),
        Metric("e2e_data_reduction",
               results["e2e"]["optimized"]["data_reduction"], "x",
               shape_min(1.5, paper="dedup-heavy mix still reduces")),
        # Buffer-pool efficacy on the flush and read paths: recycled
        # segio payload / read paint buffers instead of fresh
        # allocations. Counts are seed-determined, not wall-clock.
        Metric("e2e_segio_pool_hit_rate",
               results["e2e"]["optimized"]["segio_pool"]["hit_rate"],
               "fraction",
               shape_min(0.9, paper="steady-state flush reuses buffers")),
        Metric("e2e_segio_pool_allocations",
               results["e2e"]["optimized"]["segio_pool"]["misses"],
               "buffers",
               shape_max(4, paper="allocations bounded by pool depth")),
        Metric("e2e_read_pool_hit_rate",
               results["e2e"]["optimized"]["read_pool"]["hit_rate"],
               "fraction", shape_min(0.5)),
    ]


# ----------------------------------------------------------------------
# pytest entry: the same measurements as a regression guard


def test_hotpath_speedups(once):
    from benchmarks.conftest import emit

    results = once(run_all)
    emit("hotpath_speedups", summarize(results))
    print(format_perf_report(results["perf_report"]))
    # Regression thresholds sit below the recorded BENCH_hotpath.json
    # numbers to absorb machine noise while still catching real decay.
    assert results["rs_encode"]["speedup"] > 2.0
    assert results["rs_encode"]["stripes_speedup"] > 2.0
    assert results["gf256"]["mul_array"]["speedup"] > 1.5
    assert results["e2e"]["write_speedup"] > 1.2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write full results as JSON to PATH (e.g. BENCH_hotpath.json)",
    )
    options = parser.parse_args(argv)
    results = run_all()
    print(summarize(results))
    print()
    print(format_perf_report(results["perf_report"]))
    if options.json:
        with open(options.json, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("\nwrote %s" % options.json)
    return results


if __name__ == "__main__":
    main()
