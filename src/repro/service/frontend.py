"""The block-service front end: tenant queues over array or cluster.

:class:`ServiceFrontend` is the layer between tenants and the engine:
requests are *submitted* with an arrival time on the sim clock, pass
admission control (:mod:`repro.service.admission`), wait in per-tenant
queues under the deficit-weighted QoS scheduler
(:mod:`repro.service.qos`), and are then dispatched one at a time to
the backend — a :class:`~repro.core.array.PurityArray` or a
:class:`~repro.cluster.cluster.Cluster`; the verbs match, so the same
front end drives N=1 and cluster runs.

The dispatch loop is an explicit discrete-event simulation: serve
whatever the scheduler allows now; when nothing is dispatchable,
advance the clock to the next interesting instant (next arrival, next
admission-delay expiry, or next token-bucket refill). On a cluster
backend the advance runs the event loop, so heartbeats and refresh
copies interleave with front-end waits exactly as they would with raw
client I/O. No wall clock, no randomness: the same tape produces the
same schedule byte for byte.

Latency accounting is end to end: a completion's ``latency`` runs from
*arrival* to *finish* and therefore includes queue wait — the number
the noisy-neighbor benchmark gates on, and the honest one for a
consolidation story.
"""

from repro.errors import PurityError
from repro.service.admission import AdmissionController
from repro.service.config import QosSpec, ServiceConfig
from repro.service.qos import QosScheduler
from repro.service.request import (
    MUTATING_OPS,
    OP_READ,
    OP_WRITE,
    OPS,
    VERDICT_ADMIT,
    VERDICT_DELAY,
    VERDICT_SHED,
    Completion,
    Request,
)

_EPS = 1e-12

#: How long (sim seconds) a DELAY verdict holds a request back.
ADMISSION_DELAY = 0.002

#: Owner of I/O against volumes the front end is not tracking.
DEFAULT_TENANT = "default"


class TenantStats:
    """Per-tenant accounting the mgmt API and reports read."""

    __slots__ = (
        "tenant", "submitted", "admitted", "delayed", "shed",
        "dispatched", "errors", "reads", "writes", "bytes_read",
        "bytes_written", "latencies", "waits", "read_latencies",
    )

    def __init__(self, tenant):
        self.tenant = tenant
        self.submitted = 0
        self.admitted = 0
        self.delayed = 0
        self.shed = 0
        self.dispatched = 0
        self.errors = 0
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.latencies = []
        self.waits = []
        self.read_latencies = []

    @staticmethod
    def _percentile(values, fraction):
        if not values:
            return None
        ordered = sorted(values)
        rank = min(len(ordered) - 1,
                   int(fraction * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    def latency_percentile(self, fraction, reads_only=False):
        values = self.read_latencies if reads_only else self.latencies
        return self._percentile(values, fraction)

    def wait_percentile(self, fraction):
        return self._percentile(self.waits, fraction)

    def report(self):
        """Plain-dict snapshot (see docs/SERVICE_PLANE.md for fields)."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "delayed": self.delayed,
            "shed": self.shed,
            "dispatched": self.dispatched,
            "errors": self.errors,
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "latency_p50": self.latency_percentile(0.50),
            "latency_p99": self.latency_percentile(0.99),
            "read_latency_p99": self.latency_percentile(
                0.99, reads_only=True
            ),
            "wait_p99": self.wait_percentile(0.99),
        }


class ServiceFrontend:
    """Per-tenant queues + QoS + admission over one backend."""

    def __init__(self, backend, config=None, obs=None):
        self.backend = backend
        self.config = config or ServiceConfig()
        self.clock = backend.clock
        self.obs = obs if obs is not None else backend.obs
        self.scheduler = QosScheduler(self.clock, self.config)
        self.admission = AdmissionController(self.config)
        self._is_cluster = hasattr(backend, "pump")
        self._seq = 0
        #: Submitted-but-not-ingested requests, kept sorted by
        #: (arrival, seq) lazily at run() time.
        self._backlog = []
        self.completions = []
        self.stats = {}
        #: volume -> owning tenant.
        self._volume_tenant = {}
        self._volume_sizes = {}
        metrics = self.obs.metrics
        self._m_submitted = metrics.counter("service.submitted")
        self._m_admitted = metrics.counter("service.admitted")
        self._m_delayed = metrics.counter("service.delayed")
        self._m_shed = metrics.counter("service.shed")
        self._m_dispatched = metrics.counter("service.dispatched")
        self._m_errors = metrics.counter("service.errors")
        self._m_wait = metrics.histogram("service.wait.latency")
        self._m_latency = metrics.histogram("service.request.latency")

    # ------------------------------------------------------------------
    # Tenants and volumes

    def register_tenant(self, tenant, spec=None):
        spec = spec or QosSpec()
        self.scheduler.add_tenant(tenant, spec)
        self.stats[tenant] = TenantStats(tenant)
        return spec

    def set_qos(self, tenant, spec):
        """Replace a tenant's QoS contract (buckets restart fresh)."""
        self.scheduler.set_spec(tenant, spec)

    def tenants(self):
        return list(self.scheduler.queues)

    def tenant_spec(self, tenant):
        return self.scheduler.queues[tenant].spec

    def _ensure_tenant(self, tenant):
        if tenant not in self.scheduler.queues:
            self.register_tenant(tenant)

    def create_volume(self, tenant, volume, size):
        self._ensure_tenant(tenant)
        self.backend.create_volume(volume, size)
        self._volume_tenant[volume] = tenant
        self._volume_sizes[volume] = size

    def adopt_volume(self, tenant, volume, size):
        """Track an externally-created volume (e.g. a clone)."""
        self._ensure_tenant(tenant)
        self._volume_tenant[volume] = tenant
        self._volume_sizes[volume] = size

    def forget_volume(self, volume):
        self._volume_tenant.pop(volume, None)
        self._volume_sizes.pop(volume, None)

    def volume_tenant(self, volume):
        return self._volume_tenant.get(volume)

    def volume_size(self, volume):
        return self._volume_sizes.get(volume)

    def volumes(self, tenant=None):
        """Tracked volumes, optionally filtered by owning tenant."""
        return [volume for volume, owner in self._volume_tenant.items()
                if tenant is None or owner == tenant]

    # ------------------------------------------------------------------
    # Submission

    def submit(self, op, volume, offset=0, data=None, length=0, at=None):
        """Queue one block operation; returns its :class:`Request`.

        ``at`` is the arrival time on the sim clock (defaults to, and
        is clamped to, *now*). Nothing touches the backend until
        :meth:`run` dispatches it.
        """
        if op not in OPS:
            raise ValueError("unknown op %r" % op)
        if op == OP_WRITE and data is None:
            raise ValueError("a write needs data")
        tenant = self._volume_tenant.get(volume)
        if tenant is None:
            tenant = DEFAULT_TENANT
            self._ensure_tenant(tenant)
        arrival = self.clock.now if at is None else max(at, self.clock.now)
        self._seq += 1
        request = Request(
            seq=self._seq, tenant=tenant, op=op, volume=volume,
            offset=offset, length=length, data=data, arrival=arrival,
            priority=self.scheduler.queues[tenant].spec.priority,
            eligible_at=arrival,
        )
        self._backlog.append(request)
        return request

    def submit_read(self, volume, offset, length, at=None):
        return self.submit(OP_READ, volume, offset, length=length, at=at)

    def submit_write(self, volume, offset, data, at=None):
        return self.submit(OP_WRITE, volume, offset, data=data, at=at)

    # ------------------------------------------------------------------
    # The dispatch loop

    def run(self, until=None):
        """Serve queued work in sim-time order; returns new completions.

        Runs until the backlog and queues are empty, or — when
        ``until`` is given — until serving would require advancing the
        clock past it (leftover work stays queued for the next call).
        """
        done_before = len(self.completions)
        self._backlog.sort(key=lambda r: (r.arrival, r.seq))
        backlog = self._backlog
        index = 0
        while True:
            now = self.clock.now
            while index < len(backlog) \
                    and backlog[index].arrival <= now + _EPS:
                self._ingest(backlog[index])
                index += 1
            request = self.scheduler.next_request(now)
            if request is not None:
                self._dispatch(request)
                continue
            # Nothing dispatchable: find the next interesting instant.
            next_arrival = backlog[index].arrival \
                if index < len(backlog) else None
            next_ready = self.scheduler.next_ready_time(now)
            candidates = [t for t in (next_arrival, next_ready)
                          if t is not None]
            if not candidates:
                break
            target = min(candidates)
            if until is not None and target > until + _EPS:
                break
            self._advance_to(max(target, now))
        del backlog[:index]
        return self.completions[done_before:]

    def drain(self):
        """Serve everything, then flush the backend's own pipeline."""
        completions = self.run()
        if not self._is_cluster:
            self.backend.drain()
        return completions

    def _advance_to(self, target):
        delta = target - self.clock.now
        if delta <= 0:
            return
        if self._is_cluster:
            # Run the cluster's event loop so heartbeats, failure
            # detection, and refresh copies fire during the wait.
            self.backend.advance(delta)
        else:
            self.clock.advance(delta)

    def _signals(self, volume):
        """The backend's live (degrade engine, rebuild governor) for
        ``volume``, or (None, None) when they cannot be resolved."""
        backend = self.backend
        if not self._is_cluster:
            return backend.degrade, backend.rebuild_governor
        if backend.passthrough:
            solo = backend.solo
            return solo.degrade, solo.rebuild_governor
        try:
            replicas = backend.mdm.routing(volume)
        except PurityError:
            return None, None
        if not replicas:
            return None, None
        node = backend.nodes[replicas[0]]
        if not node.alive:
            return None, None
        return node.array.degrade, node.array.rebuild_governor

    def _ingest(self, request):
        stats = self.stats[request.tenant]
        stats.submitted += 1
        self._m_submitted.inc()
        degrade, governor = self._signals(request.volume)
        verdict, reason = self.admission.decide(
            request, self.scheduler.queue_depth(request.tenant),
            degrade=degrade, governor=governor,
        )
        if verdict == VERDICT_SHED:
            stats.shed += 1
            self._m_shed.inc()
            if self.obs.tracing:
                self.obs.event("service.shed", tenant=request.tenant,
                               volume=request.volume, op=request.op,
                               reason=reason)
            now = self.clock.now
            self.completions.append(Completion(
                request=request, verdict=VERDICT_SHED, reason=reason,
                start=now, finish=now,
            ))
            return
        if verdict == VERDICT_DELAY:
            request.delayed = True
            request.delay_reason = reason
            stats.delayed += 1
            self._m_delayed.inc()
            request.eligible_at = self.clock.now + ADMISSION_DELAY
            if self.obs.tracing:
                self.obs.event("service.delay", tenant=request.tenant,
                               volume=request.volume, op=request.op,
                               reason=reason)
        stats.admitted += 1
        self._m_admitted.inc()
        self.scheduler.enqueue(request)

    def _dispatch(self, request):
        start = self.clock.now
        span = None
        if self.obs.tracing:
            span = self.obs.begin(
                "service.%s" % request.op, tenant=request.tenant,
                volume=request.volume, nbytes=request.cost_bytes,
            )
        error = None
        data = None
        try:
            if request.op == OP_READ:
                data, _lat = self.backend.read(
                    request.volume, request.offset, request.length,
                    advance_clock=True,
                )
            elif request.op == OP_WRITE:
                self.backend.write(request.volume, request.offset,
                                   request.data, advance_clock=True)
            else:
                self.backend.unmap(request.volume, request.offset,
                                   request.length)
        except PurityError as exc:
            error = "%s: %s" % (type(exc).__name__, exc)
        finish = self.clock.now
        if span is not None:
            self.obs.end(span, lat=finish - start,
                         failed=error is not None)
        stats = self.stats[request.tenant]
        stats.dispatched += 1
        self._m_dispatched.inc()
        if error is not None:
            stats.errors += 1
            self._m_errors.inc()
        else:
            if request.op == OP_READ:
                stats.reads += 1
                stats.bytes_read += request.length
            elif request.op in MUTATING_OPS:
                stats.writes += 1
                stats.bytes_written += request.cost_bytes
        completion = Completion(
            request=request, verdict=VERDICT_ADMIT,
            reason=request.delay_reason, delayed=request.delayed,
            start=start, finish=finish, error=error, data=data,
        )
        wait = completion.wait
        latency = completion.latency
        stats.waits.append(wait)
        stats.latencies.append(latency)
        if request.op == OP_READ and error is None:
            stats.read_latencies.append(latency)
        self._m_wait.record(wait)
        self._m_latency.record(latency)
        metrics = self.obs.metrics
        metrics.histogram(
            "service.request.latency.%s" % request.tenant
        ).record(latency)
        self.completions.append(completion)
        return completion

    # ------------------------------------------------------------------
    # Telemetry

    def queue_depths(self):
        return self.scheduler.depths()

    def observe_sample(self):
        """Sample the queue-depth series (total and per tenant)."""
        now = self.clock.now
        metrics = self.obs.metrics
        metrics.series("service.queue_depth").sample(
            now, self.scheduler.queued()
        )
        for tenant, depth in self.scheduler.depths().items():
            metrics.series(
                "service.queue_depth.%s" % tenant
            ).sample(now, depth)

    def tenant_report(self, tenant):
        report = self.stats[tenant].report()
        report["queue_depth"] = self.scheduler.queue_depth(tenant)
        spec = self.scheduler.queues[tenant].spec
        report["priority"] = spec.priority
        report["iops_limit"] = spec.iops_limit
        report["bandwidth_limit"] = spec.bandwidth_limit
        return report

    def service_report(self):
        """Front-end-wide snapshot (see docs/SERVICE_PLANE.md)."""
        return {
            "qos_enabled": self.config.qos_enabled,
            "admission_enabled": self.config.admission_enabled,
            "queued": self.scheduler.queued(),
            "completions": len(self.completions),
            "admission": self.admission.report(),
            "tenants": {
                tenant: self.tenant_report(tenant)
                for tenant in self.scheduler.queues
            },
        }
