"""Optimized hot path vs seed hot path: observable behaviour is identical.

The hot-path rework (translate-table GF(256), batched RS encode, sampled
record hashing, memoryview splitting, bulk dedup-run extension) must be
invisible above the datapath: the same workload run on the optimized
pipeline and on the seed pipeline (re-instated via
``repro.seedpath.seed_pipeline``) has to return byte-identical reads
and land on identical data-reduction accounting.
"""

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.seedpath import seed_pipeline
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB


def make_workload(seed=7):
    """A deterministic mixed workload: (operation, args) tuples.

    Covers the behaviours the optimizations touched: compressible and
    incompressible writes, exact and misaligned duplicate rewrites
    (dedup anchor extension), overwrites, snapshots + clones (medium
    chains), unmap holes, and reads of everything at the end.
    """
    stream = RandomStream(seed)
    unique = [stream.randbytes(16 * KIB) for _ in range(12)]
    compressible = [
        (bytes([i * 7 % 256, i * 13 % 256]) * (8 * KIB)) for i in range(6)
    ]
    operations = []
    # Phase 1: lay down a base image on "v0" (mix of entropy levels).
    for index in range(12):
        operations.append(("write", "v0", index * 16 * KIB, unique[index]))
    for index in range(6):
        operations.append(
            ("write", "v0", (12 + index) * 16 * KIB, compressible[index])
        )
    operations.append(("snapshot", "v0", "s1"))
    operations.append(("clone", "v0", "s1", "v1"))
    # Phase 2: duplicate data, aligned and misaligned against sampling.
    operations.append(("write", "v1", 0, unique[3]))  # exact duplicate
    misaligned = unique[5][3 * KIB : 15 * KIB]  # 12 KiB mid-cblock slice
    operations.append(("write", "v1", 20 * 16 * KIB, misaligned))
    operations.append(
        ("write", "v1", 21 * 16 * KIB, unique[7] + unique[8])  # 32 KiB run
    )
    # Phase 3: overwrites and holes on the original volume.
    operations.append(("write", "v0", 2 * 16 * KIB, stream.randbytes(16 * KIB)))
    operations.append(("unmap", "v0", 5 * 16 * KIB, 32 * KIB))
    operations.append(("write", "v0", 5 * 16 * KIB + 4 * KIB, compressible[2]))
    operations.append(("snapshot", "v1", "s2"))
    operations.append(("clone", "v1", "s2", "v2"))
    operations.append(("write", "v2", 4 * 16 * KIB, unique[0]))
    operations.append(("drain",))
    return operations


def run_workload(operations):
    """Execute the workload; returns (reads dict, reduction stats)."""
    config = ArrayConfig.small(num_drives=11, seed=11)
    array = PurityArray.create(config)
    array.create_volume("v0", 4 * MIB)
    created = {"v0"}
    for op in operations:
        kind = op[0]
        if kind == "write":
            _, volume, offset, data = op
            array.write(volume, offset, data)
        elif kind == "unmap":
            _, volume, offset, length = op
            array.unmap(volume, offset, length)
        elif kind == "snapshot":
            _, volume, name = op
            array.snapshot(volume, name)
        elif kind == "clone":
            _, volume, snap, new_volume = op
            array.clone(volume, snap, new_volume)
            created.add(new_volume)
        elif kind == "drain":
            array.drain()
        else:  # pragma: no cover - workload typo guard
            raise AssertionError("unknown op %r" % (kind,))
    array.datapath.drop_caches()
    reads = {}
    for volume in sorted(created):
        for chunk_index in range(0, 24):
            offset = chunk_index * 16 * KIB
            reads[(volume, offset)] = array.read(volume, offset, 16 * KIB)
    report = array.reduction_report()
    stats = {
        "logical_live_bytes": report.logical_live_bytes,
        "unique_logical_bytes": report.unique_logical_bytes,
        "physical_stored_bytes": report.physical_stored_bytes,
        "dedup_ratio": report.dedup_ratio,
        "compression_ratio": report.compression_ratio,
        "data_reduction": report.data_reduction,
        "logical_bytes_written": array.datapath.logical_bytes_written,
        "dedup_bytes_saved": array.datapath.dedup_bytes_saved,
        "matches_found": array.datapath.deduper.matches_found,
    }
    return reads, stats


def test_optimized_pipeline_matches_seed_pipeline():
    operations = make_workload()
    optimized_reads, optimized_stats = run_workload(operations)
    with seed_pipeline():
        seed_reads, seed_stats = run_workload(operations)
    assert optimized_reads.keys() == seed_reads.keys()
    for key in optimized_reads:
        assert optimized_reads[key] == seed_reads[key], key
    assert optimized_stats == seed_stats


def test_seed_pipeline_restores_optimized_kernels():
    """Patching is scoped: the optimized implementations come back."""
    from repro.core import datapath as datapath_module
    from repro.erasure.gf256 import GF256
    from repro.erasure.reed_solomon import ReedSolomon

    before = (
        GF256.__dict__["mul_array"],
        ReedSolomon.encode,
        datapath_module.split_write,
    )
    with seed_pipeline():
        assert ReedSolomon.encode is not before[1]
        assert datapath_module.split_write is not before[2]
    after = (
        GF256.__dict__["mul_array"],
        ReedSolomon.encode,
        datapath_module.split_write,
    )
    assert after == before
