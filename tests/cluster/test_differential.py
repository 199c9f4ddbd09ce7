"""N=1 differential: a one-array cluster IS the bare engine.

The cluster layer's trust anchor: with a single member the ``Cluster``
facade must be a pure wrapper — same drive bytes, same read results,
same obs trace JSONL, same metric snapshot — as a bare ``PurityArray``
driven through the identical seeded workload. Whatever the layer adds
for N≥2, it provably adds nothing at N=1: no heartbeats, no cluster
spans or metrics, no extra clock advances.
"""

import hashlib

from repro.cluster import Cluster, ClusterConfig
from repro.obs.export import metrics_text, trace_text
from repro.perf import reset_perf_counters
from repro.sim.rand import RandomStream
from repro.units import KIB

from tests.conftest import make_engine

SEED = 31
RECORD = 16 * KIB
SLOTS = 16
OPS = 40


def _drive_fingerprint(array):
    """Hash of every stored byte run on every drive, in a fixed order."""
    digest = hashlib.sha256()
    for name in sorted(array.drives):
        store = array.drives[name].store
        digest.update(name.encode())
        for start, length in store.extents():
            digest.update(b"%d:%d:" % (start, length))
            digest.update(store.read(start, length))
    return digest.hexdigest()


def _run(kind):
    """Drive one workload through a bare engine or a 1-array cluster."""
    reset_perf_counters()
    config = ClusterConfig(num_arrays=1, seed=SEED)
    stream = RandomStream(SEED).fork("cluster-differential")
    if kind == "bare":
        engine = make_engine(seed=config.node_seed(0))
        engine.obs.enable_tracing()
        io = engine
    else:
        cluster = Cluster(config)
        cluster.enable_tracing()
        engine = cluster.solo
        io = cluster
    io.create_volume("v0", SLOTS * RECORD)
    for op in range(OPS):
        offset = (op % SLOTS) * RECORD
        if op % 5 == 4:
            io.read("v0", offset, RECORD)
        else:
            io.write("v0", offset, stream.randbytes(RECORD))
    victim = sorted(engine.drives)[3]
    engine.fail_drive(victim)
    engine.replace_drive(victim)
    engine.rebuild()
    engine.scrub()
    engine.run_gc()
    engine.observe_sample()
    reads = [io.read("v0", index * RECORD, RECORD)[0]
             for index in range(SLOTS)]
    return {
        "fingerprint": _drive_fingerprint(engine),
        "reads": reads,
        "trace": trace_text(engine.obs),
        "metrics": metrics_text(engine.obs),
        "clock": engine.clock.now,
    }


def test_one_array_cluster_is_byte_identical_to_bare_engine():
    bare = _run("bare")
    clustered = _run("cluster")
    assert clustered["reads"] == bare["reads"]
    assert clustered["fingerprint"] == bare["fingerprint"]
    assert clustered["trace"] == bare["trace"]
    assert clustered["metrics"] == bare["metrics"]
    assert clustered["clock"] == bare["clock"]
    assert bare["trace"]  # tracing was actually on: a real comparison


def test_passthrough_schedules_nothing_on_the_event_loop():
    cluster = Cluster(ClusterConfig(num_arrays=1, seed=SEED))
    assert cluster.passthrough
    assert len(cluster.loop._queue) == 0
    cluster.create_volume("v0", 4 * RECORD)
    cluster.write("v0", 0, b"x" * RECORD)
    cluster.read("v0", 0, RECORD)
    assert len(cluster.loop._queue) == 0
    assert cluster.settle() == 0.0


def test_passthrough_records_no_cluster_metrics():
    cluster = Cluster(ClusterConfig(num_arrays=1, seed=SEED))
    cluster.create_volume("v0", 4 * RECORD)
    cluster.write("v0", 0, b"x" * RECORD)
    snapshot = cluster.obs.metrics.snapshot()
    for name, value in snapshot["counters"].items():
        if name.startswith("cluster."):
            assert value == 0, name


def test_multi_array_cluster_is_not_passthrough():
    cluster = Cluster(ClusterConfig(num_arrays=2, seed=SEED))
    assert not cluster.passthrough
    # Heartbeats and the failure-detector tick are on the loop.
    assert len(cluster.loop._queue) > 0
