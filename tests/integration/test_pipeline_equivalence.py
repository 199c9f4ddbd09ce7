"""A mixed workload reads back exactly what a flat model says it wrote.

The hot path (translate-table GF(256), batched RS encode, sampled
record hashing, memoryview splitting, one-fetch dedup-run extension)
must be invisible above the datapath: after writes, exact and
misaligned duplicates, overwrites, unmap, snapshot -> clone and a drain,
every volume reads back byte-for-byte what a per-volume ``bytearray``
holds. Each kernel is also held to its reference implementation by the
differential tests beside it.
"""

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
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


VOLUME_SIZE = 4 * MIB


def run_workload(operations):
    """Execute the workload on an array and on the model; returns
    (reads dict, model dict, array)."""
    config = ArrayConfig.small(num_drives=11, seed=11)
    array = PurityArray.create(config)
    array.create_volume("v0", VOLUME_SIZE)
    model = {"v0": bytearray(VOLUME_SIZE)}
    snapshots = {}
    for op in operations:
        kind = op[0]
        if kind == "write":
            _, volume, offset, data = op
            array.write(volume, offset, data)
            model[volume][offset : offset + len(data)] = data
        elif kind == "unmap":
            _, volume, offset, length = op
            array.unmap(volume, offset, length)
            model[volume][offset : offset + length] = bytes(length)
        elif kind == "snapshot":
            _, volume, name = op
            array.snapshot(volume, name)
            snapshots[volume, name] = bytes(model[volume])
        elif kind == "clone":
            _, volume, snap, new_volume = op
            array.clone(volume, snap, new_volume)
            model[new_volume] = bytearray(snapshots[volume, snap])
        elif kind == "drain":
            array.drain()
        else:  # pragma: no cover - workload typo guard
            raise AssertionError("unknown op %r" % (kind,))
    array.datapath.drop_caches()
    reads = {}
    for volume in sorted(model):
        for chunk_index in range(0, 24):
            offset = chunk_index * 16 * KIB
            reads[(volume, offset)] = array.read(volume, offset, 16 * KIB)[0]
    return reads, model, array


def test_mixed_workload_reads_back_the_model():
    reads, model, array = run_workload(make_workload())
    assert sorted({volume for volume, _offset in reads}) == ["v0", "v1", "v2"]
    for (volume, offset), data in reads.items():
        assert data == model[volume][offset : offset + 16 * KIB], (volume,
                                                                   offset)
    # The duplicate rewrites were found inline, not stored again.
    assert array.datapath.deduper.matches_found > 0
    assert array.datapath.dedup_bytes_saved > 0
