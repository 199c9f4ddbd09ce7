"""The workloads: frozen constants, seeded op tapes, and builders.

Four are the contract's (BENCHMARK.json). ``snap_clone_churn_full`` is
the churn tape with ISSUE 11's ``unmap`` and straddling writes left in;
the parent commit returns wrong bytes on it, and the contract takes no
workload on which an op fails (README "Known at baseline").

A *tape* is everything the program will be asked to do, generated from
``--seed`` during set-up; the program only ever sees the generated ops.
Work is a fixed op count, never a duration, so every sim-clock number
and every count repeats exactly for a given seed.

Closed-loop tapes (``PurityArray`` workloads) are lists of tuples whose
first element names a verb of :class:`benchmarks.perf.drivers.ArrayDriver`;
the open-loop tape (``svc_cluster``) is a list of timed requests for
:class:`benchmarks.perf.drivers.ServiceDriver`.
"""

from dataclasses import dataclass

from repro.core.config import ArrayConfig
from repro.sim.rand import RandomStream
from repro.units import GIB, KIB, MIB, SECTOR
from repro.workloads.datagen import DataGenerator, DataProfile

#: Seed of the arrays' own stochastic device models. ``--seed`` varies
#: the inputs only; the modelled hardware stays the same machine.
ARRAY_SEED = 2015

#: Two pulled drives: the paper's availability demo (7+2 coding).
FAILED_DRIVES = 2

#: Frozen workload constants (op counts scale with ``--scale``; sizes
#: never do). Copied into every results JSON.
CONSTANTS = {
    "oltp_mixed": {
        "volume_mib": 64, "read_kib": 32, "write_kib": [24, 40],
        "align_kib": 4, "profile": "rdbms", "cblock_cache_entries": 128,
        "preload": 256, "writes": 320, "reads": 320, "degraded_reads": 192,
    },
    "seq_ingest": {
        "io_kib": [384, 640], "io_step_kib": 4, "compressibility": 0.5,
        "ops": 128,
    },
    # clients=4 (one per base volume), not ISSUE 11's one: the modelled
    # write acknowledgement is a pure function of size and a record has
    # one of 8 lengths, so with one client sim_write_p50_us read
    # 17.8311 us on 5 of 6 seeds, and the contract refuses a time that
    # reads the same on every run. Four writes issued at one instant queue
    # at the NVRAM, and the median moves with the tape (32.9-34.3 us).
    "snap_clone_churn": {
        "volumes": 4, "volume_kib": 512, "clients": 4, "read_kib": 4,
        "record_kib": 4, "write_kib": [0.5, 4], "unmap_kib": 0,
        "cblock_cache_entries": 16,
        "profile": "virtualization", "rounds": 4, "clones_per_round": 2,
        "writes_per_round": 64, "reads_per_round": 64, "clone_cap": 4,
        "snapshot_cap": 2, "gc_after_round": 2, "degraded_reads": 192,
    },
    "svc_cluster": {
        "arrays": 2, "replication": 2, "cblock_cache_entries": 16,
        "tenants": ["gold", "silver", "silver", "bronze"],
        "volume_kib": 1024, "profile": "rdbms", "rate_ops_per_s": 1000,
        "read_fraction": 0.7, "size_kib": [4, 16],
        "requests": 600, "degraded_reads": 128,
    },
}

#: The churn tape with what ISSUE 11 specifies and the parent commit gets
#: wrong put back: writes that land anywhere and straddle, up to 8 KiB,
#: and a 64 KiB ``unmap`` every round.
CONSTANTS["snap_clone_churn_full"] = dict(
    CONSTANTS["snap_clone_churn"], record_kib=None, write_kib=[0.5, 8],
    unmap_kib=64)

#: Constants that are op counts (multiplied by ``--scale``).
_SCALED = ("preload", "writes", "reads", "degraded_reads", "ops",
           "writes_per_round", "reads_per_round", "requests")


def constants(name, scale=1.0):
    """The workload's constants with op counts scaled (never below 8)."""
    out = dict(CONSTANTS[name])
    for key in _SCALED:
        if key in out:
            out[key] = max(8, int(out[key] * scale))
    return out


@dataclass
class Tape:
    """One run's inputs: volumes to create, preload writes, timed ops."""

    volumes: list
    preload: list
    #: The healthy timed phase; crash -> recover follows its last op.
    ops: list
    #: The degraded timed phase, run on the recovered system.
    degraded: list


def _degraded_phase(reads):
    """Everything is persisted before the drives are pulled and the caches
    emptied after, so every read goes to flash and, where its shard is
    gone, through reconstruction."""
    return [("drain",), ("fail_drives", FAILED_DRIVES), ("drop_caches",)] + reads


def _payload(data, size):
    """``size`` bytes (any sector multiple) of the generator's profile."""
    block = data.block_size
    return data.buffer(-(-size // block) * block)[:size]


def _size(pick, bounds_kib, step=SECTOR):
    """A size drawn uniformly from ``bounds_kib`` in ``step``-byte steps.

    Sizes vary because the modelled write acknowledgement is a pure
    function of size: with one fixed size every seed would report the
    same sim write latency, which says nothing about the seed's run.
    """
    low, high = (int(bound * KIB) // step for bound in bounds_kib)
    return pick.randint(low, high) * step


def _oltp_mixed_tape(seed, c):
    stream = RandomStream(seed).fork("oltp_mixed")
    data = DataGenerator(c["profile"], stream.fork("data"))
    pick = stream.fork("offsets")
    read_size = c["read_kib"] * KIB
    align = c["align_kib"] * KIB
    slots = (c["volume_mib"] * MIB - c["write_kib"][1] * KIB) // align

    def write():
        return ("write", "v0", pick.randint(0, slots) * align,
                _payload(data, _size(pick, c["write_kib"])))

    preload = [write() for _ in range(c["preload"])]
    written = [op[2] for op in preload]
    kinds = ["write"] * c["writes"] + ["read"] * c["reads"]
    pick.shuffle(kinds)
    ops = []
    for kind in kinds:
        if kind == "write":
            op = write()
            written.append(op[2])
        else:
            op = ("read", "v0", pick.choice(written), read_size)
        ops.append(op)
    degraded = [("read", "v0", pick.choice(written), read_size)
                for _ in range(c["degraded_reads"])]
    return Tape([("v0", c["volume_mib"] * MIB)], preload, ops,
                _degraded_phase(degraded))


def _seq_ingest_tape(seed, c):
    stream = RandomStream(seed).fork("seq_ingest")
    profile = DataProfile("seq", c["compressibility"], 0.0)
    data = DataGenerator(profile, stream.fork("data"))
    pick = stream.fork("sizes")
    writes, reads, offset = [], [], 0
    for _ in range(c["ops"]):
        size = _size(pick, c["io_kib"], c["io_step_kib"] * KIB)
        writes.append(("write", "v0", offset, _payload(data, size)))
        reads.append(("read", "v0", offset, size))
        offset += size
    ops = writes + [("drain",), ("drop_caches",)] + reads
    return Tape([("v0", c["ops"] * c["io_kib"][1] * KIB)], [], ops,
                _degraded_phase(reads))


def _snap_clone_churn_tape(seed, c):
    """Both churn workloads. With ``record_kib`` each volume is a file of
    fixed-pitch records whose lengths the seed draws once and a write
    replaces one whole record; without it a write lands on any sector
    and straddles what is there. ``unmap_kib`` 0 leaves ``unmap`` out."""
    stream = RandomStream(seed).fork("snap_clone_churn")
    data = DataGenerator(c["profile"], stream.fork("data"))
    pick = stream.fork("choices")
    vol_size = c["volume_kib"] * KIB
    read_size = c["read_kib"] * KIB
    chunk = 64 * KIB
    unmap = c["unmap_kib"] * KIB
    if c["record_kib"]:
        pitch = c["record_kib"] * KIB
        lengths = [_size(pick, c["write_kib"]) for _ in range(vol_size // pitch)]
    bases = ["v%d" % index for index in range(c["volumes"])]
    preload = [("write", name, offset, data.buffer(chunk))
               for name in bases for offset in range(0, vol_size, chunk)]

    def io(kind, targets):
        name = pick.choice(targets)
        if kind == "read":
            return ("read", name,
                    pick.randint(0, vol_size // read_size - 1) * read_size,
                    read_size)
        if c["record_kib"]:
            record = pick.randint(0, len(lengths) - 1)
            return ("write", name, record * pitch,
                    _payload(data, lengths[record]))
        size = _size(pick, c["write_kib"])
        return ("write", name,
                pick.randint(0, (vol_size - size) // SECTOR) * SECTOR,
                _payload(data, size))

    ops, clones, snaps = [], [], []
    for rnd in range(1, c["rounds"] + 1):
        snap = "s%d" % rnd
        ops += [("snapshot", name, snap) for name in bases]
        snaps.append(snap)
        for index in range(c["clones_per_round"]):
            clone = "c%d_%d" % (rnd, index)
            ops.append(("clone", bases[index], snap, clone))
            clones.append(clone)
        targets = bases + clones
        kinds = ["write"] * c["writes_per_round"] + ["read"] * c["reads_per_round"]
        pick.shuffle(kinds)
        ops += [io(kind, targets) for kind in kinds]
        if unmap:
            ops.append(("unmap", pick.choice(targets),
                        pick.randint(0, vol_size // unmap - 1) * unmap, unmap))
        while len(clones) > c["clone_cap"]:
            ops.append(("destroy_volume", clones.pop(0)))
        while len(snaps) > c["snapshot_cap"]:
            old = snaps.pop(0)
            ops += [("destroy_snapshot", name, old) for name in bases]
        if rnd == c["gc_after_round"]:
            ops.append(("gc",))
    degraded = [io("read", bases + clones) for _ in range(c["degraded_reads"])]
    return Tape([(name, vol_size) for name in bases], preload, ops,
                _degraded_phase(degraded))


def _svc_cluster_tape(seed, c):
    stream = RandomStream(seed).fork("svc_cluster")
    data = DataGenerator(c["profile"], stream.fork("data"))
    pick = stream.fork("requests")
    vol_size = c["volume_kib"] * KIB
    names = ["vol%d" % index for index in range(len(c["tenants"]))]
    chunk = 16 * KIB
    preload = [("write", name, offset, data.buffer(chunk))
               for name in names for offset in range(0, vol_size, chunk)]
    clock = [0.0]

    def request(read):
        clock[0] += pick.expovariate(c["rate_ops_per_s"])
        name = names[pick.zipf_index(len(names))]
        size = _size(pick, c["size_kib"])
        offset = pick.randint(0, (vol_size - size) // (4 * KIB)) * 4 * KIB
        if read:
            return (clock[0], "read", name, offset, size)
        return (clock[0], "write", name, offset, _payload(data, size))

    # The mix is exact, in a seeded order: a write costs the host eight
    # times a read, so a mix drawn per request (158-198 writes in 600)
    # moved a tape's host time by 25 %.
    reads = round(c["requests"] * c["read_fraction"])
    kinds = [True] * reads + [False] * (c["requests"] - reads)
    pick.shuffle(kinds)
    ops = [request(read) for read in kinds]
    clock[0] = 0.0
    degraded = [request(True) for _ in range(c["degraded_reads"])]
    return Tape([(name, vol_size) for name in names], preload, ops, degraded)


def _small(**overrides):
    return ArrayConfig.small(seed=ARRAY_SEED, workers=0, **overrides)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "closed": one client, next op when the previous returns.
    #: "open": Poisson arrivals on the sim clock regardless of progress.
    loop: str
    make_tape: object
    array_config: object


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            "oltp_mixed",
            "32 KiB random overwrites+reads on one 64 MiB volume: index work "
            "(pyramid, mediums, dedup) dominates, working set >> cblock cache",
            "closed", _oltp_mixed_tape,
            lambda c: _small(drive_capacity=64 * MIB,
                             cblock_cache_entries=c["cblock_cache_entries"]),
        ),
        Workload(
            "seq_ingest",
            "64 MiB sequential 512 KiB unique 2:1 data at paper geometry: few "
            "index ops, many bytes, so compression/erasure/layout/ssd dominate",
            "closed", _seq_ingest_tape,
            lambda c: ArrayConfig.paper_scale(
                drive_capacity=1 * GIB, seed=ARRAY_SEED, workers=0),
        ),
        Workload(
            "snap_clone_churn",
            "snapshots, clones, destroys and one GC pass beside record writes "
            "<= 4 KiB: elision, medium chains and background work, not point I/O",
            "closed", _snap_clone_churn_tape,
            lambda c: _small(cblock_cache_entries=c["cblock_cache_entries"]),
        ),
        Workload(
            "snap_clone_churn_full",
            "snap_clone_churn plus what ISSUE 11 specifies and the parent commit "
            "gets wrong: writes that straddle, up to 8 KiB, and unmap every round",
            "closed", _snap_clone_churn_tape,
            lambda c: _small(cblock_cache_entries=c["cblock_cache_entries"]),
        ),
        Workload(
            "svc_cluster",
            "open-loop Poisson 1000 ops/s through ManagementAPI+ServiceFrontend "
            "over a 2-array RF=2 cluster: scheduler, routing, fan-out, event loop",
            "open", _svc_cluster_tape,
            lambda c: _small(cblock_cache_entries=c["cblock_cache_entries"]),
        ),
    )
}
