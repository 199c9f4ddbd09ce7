"""The central registry of span, event, and metric names.

Every trace span the pipeline opens, every point event it fires, and
every metric name a call site passes to the
:class:`~repro.obs.metrics.MetricsRegistry` must appear here. The
``name-registry-sync`` lint rule checks string literals at call sites
against these sets, which is what catches typo drift ("io.wrte") and
silently-forked names ("segio-flush" vs "segio.flush") statically —
before a report quietly renders an empty table.

Adding an instrumented site is a two-line change: add the name here,
use it there. The registry is data, not behaviour: nothing imports it
on the hot path.
"""

#: Span names, one per instrumented pipeline stage or service root.
SPAN_NAMES = frozenset({
    # client-operation roots
    "io.write",
    "io.read",
    # write-path stages
    "nvram-commit",
    "dedup",
    "compress",
    "segio-append",
    "segio.flush",
    "rs-encode",
    # read-path stages
    "cblock-read",
    "segread.reconstruct",
    "segread.hedge",
    # background service roots
    "gc.run",
    "gc.collect",
    "scrub.run",
    "recovery",
    "rebuild",
    # cluster layer (see repro.cluster): client-operation roots; the
    # wrapped array's io.* spans nest under these via the shared
    # TraceBuffer, so one trace crosses the client→MDM→node hop.
    "cluster.write",
    "cluster.read",
    "cluster.failover",
    # service front end (see repro.service): per-op dispatch roots —
    # the backend's io.*/cluster.* spans nest under these — plus one
    # span per management-API call.
    "service.read",
    "service.write",
    "service.unmap",
    "service.api",
})

#: Point-event names recorded into the span tree.
EVENT_NAMES = frozenset({
    "fault",
    "drive.replace",
    "degrade.transition",
    # cluster layer: membership transitions (alive/suspect/dead/
    # rejoin), stale-epoch rejections seen by the client, timed
    # partitions, and per-volume replica-refresh copy completions.
    "cluster.membership",
    "cluster.stale-epoch",
    "cluster.partition",
    "cluster.copy",
    # service front end: admission verdicts that did not simply admit.
    "service.shed",
    "service.delay",
})

#: Metric names: dotted ``<subsystem>.<thing>[.<unit>]`` (see
#: :mod:`repro.obs.metrics` for the convention).
METRIC_NAMES = frozenset({
    # latency histograms
    "io.write.latency",
    "io.read.latency",
    "segio.flush.latency",
    "recovery.downtime",
    # counters
    "faults.fired",
    "segread.reconstructed",
    "gc.segments_collected",
    "gc.bytes_rewritten",
    "recovery.count",
    "scrub.segments_scanned",
    "scrub.corrupt_shards",
    "rebuild.segments",
    "rebuild.deferred_segments",
    # hedged reads (see repro.degrade.hedge)
    "hedge.fired",
    "hedge.won",
    "hedge.lost",
    "hedge.wasted",
    # degradation ladder / repair debt (see repro.degrade.engine)
    "degrade.transitions",
    "degrade.write_through",
    "pool.segio.hits",
    "pool.segio.misses",
    "pool.read.hits",
    "pool.read.misses",
    # cluster layer (cluster-scoped registry; node registries keep the
    # per-array namespace above)
    "cluster.writes",
    "cluster.reads",
    "cluster.stale_retries",
    "cluster.failovers",
    "cluster.heartbeats",
    "cluster.heartbeats_dropped",
    "cluster.reroute.latency",
    "cluster.rebalance.volumes_moved",
    "cluster.rebalance.bytes_copied",
    "cluster.epoch",
    "cluster.members_alive",
    # service front end (see repro.service). Per-tenant variants are
    # assembled dynamically ("service.queue_depth.<tenant>") and are
    # deliberately not registered: the registry holds the static
    # aggregate names only.
    "service.submitted",
    "service.admitted",
    "service.delayed",
    "service.shed",
    "service.dispatched",
    "service.errors",
    "service.api.calls",
    "service.wait.latency",
    "service.request.latency",
    "service.queue_depth",
    # gauges and sampled series
    "drives.alive",
    "degrade.ladder_state",
    "degrade.repair_debt",
    "rebuild.throttle_rate",
    "device.queue_depth",
    "cache.cblock_hit_rate",
    "dedup.savings_fraction",
})
