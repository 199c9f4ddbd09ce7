"""The management API: the surface operators (and benches) drive.

Every endpoint is a plain method on :class:`ManagementAPI`, registered
under a dotted name in :data:`ENDPOINTS` by the :func:`endpoint`
decorator. The registry is the contract:

* ``api.call("volume.create", tenant="crm", volume="db0", size=...)``
  dispatches by name — what a wire protocol would do;
* ``docs/API.md`` documents exactly the registered names, and
  ``tests/service/test_api_docs.py`` fails when the two drift —
  adding an endpoint without documenting it breaks the build.

Endpoints are management-plane only (CRUD, QoS contracts, stats);
data-path I/O goes through :meth:`ServiceFrontend.submit` and the QoS
scheduler, never around it.
"""

from repro.core.telemetry import SUSPECT, degraded_mode_report
from repro.service.config import QosSpec
from repro.service.frontend import DEFAULT_TENANT

#: endpoint name -> ManagementAPI method name.
ENDPOINTS = {}


def endpoint(name):
    """Register the decorated method under ``name`` in ENDPOINTS."""

    def wrap(func):
        ENDPOINTS[name] = func.__name__
        return func

    return wrap


class ManagementAPI:
    """Named management endpoints over one :class:`ServiceFrontend`."""

    def __init__(self, frontend):
        self.frontend = frontend
        self._calls = frontend.obs.metrics.counter("service.api.calls")

    def call(self, name, **kwargs):
        """Dispatch ``name`` from :data:`ENDPOINTS` with ``kwargs``."""
        method_name = ENDPOINTS.get(name)
        if method_name is None:
            raise KeyError("unknown endpoint %r" % name)
        self._calls.inc()
        obs = self.frontend.obs
        span = None
        if obs.tracing:
            span = obs.begin("service.api", endpoint=name)
        try:
            result = getattr(self, method_name)(**kwargs)
        except BaseException:
            if span is not None:
                obs.end(span, failed=True)
            raise
        if span is not None:
            obs.end(span)
        return result

    # ------------------------------------------------------------------
    # Volumes

    @endpoint("volume.create")
    def create_volume(self, tenant, volume, size):
        self.frontend.create_volume(tenant, volume, size)
        return {"volume": volume, "tenant": tenant, "size": size}

    @endpoint("volume.destroy")
    def destroy_volume(self, volume):
        self.frontend.backend.destroy_volume(volume)
        self.frontend.forget_volume(volume)
        return {"volume": volume, "destroyed": True}

    @endpoint("volume.list")
    def list_volumes(self, tenant=None):
        return self.frontend.volumes(tenant)

    @endpoint("volume.info")
    def volume_info(self, volume):
        return {
            "volume": volume,
            "tenant": self.frontend.volume_tenant(volume),
            "size": self.frontend.volume_size(volume),
            "snapshots": self._snapshot_names(volume),
        }

    # ------------------------------------------------------------------
    # Snapshots and clones

    @endpoint("snapshot.create")
    def create_snapshot(self, volume, snapshot):
        self.frontend.backend.snapshot(volume, snapshot)
        return {"volume": volume, "snapshot": snapshot}

    @endpoint("snapshot.destroy")
    def destroy_snapshot(self, volume, snapshot):
        self.frontend.backend.destroy_snapshot(volume, snapshot)
        return {"volume": volume, "snapshot": snapshot,
                "destroyed": True}

    @endpoint("snapshot.list")
    def list_snapshots(self, volume):
        return self._snapshot_names(volume)

    @endpoint("clone.create")
    def create_clone(self, volume, snapshot, new_volume, tenant=None):
        """Writable clone of a snapshot; same tenant unless overridden."""
        self.frontend.backend.clone(volume, snapshot, new_volume)
        owner = tenant or self.frontend.volume_tenant(volume) or DEFAULT_TENANT
        self.frontend.adopt_volume(
            owner, new_volume, self.frontend.volume_size(volume)
        )
        return {"volume": new_volume, "tenant": owner,
                "parent": volume, "snapshot": snapshot}

    # ------------------------------------------------------------------
    # Tenants and QoS

    @endpoint("tenant.create")
    def create_tenant(self, tenant, priority="silver", iops_limit=None,
                      bandwidth_limit=None, weight=None):
        spec = QosSpec(priority=priority, iops_limit=iops_limit,
                       bandwidth_limit=bandwidth_limit, weight=weight)
        self.frontend.register_tenant(tenant, spec)
        return {"tenant": tenant, "priority": priority}

    @endpoint("tenant.set-qos")
    def set_qos(self, tenant, priority="silver", iops_limit=None,
                bandwidth_limit=None, weight=None):
        spec = QosSpec(priority=priority, iops_limit=iops_limit,
                       bandwidth_limit=bandwidth_limit, weight=weight)
        self.frontend.set_qos(tenant, spec)
        return {"tenant": tenant, "priority": priority}

    @endpoint("tenant.list")
    def list_tenants(self):
        return self.frontend.tenants()

    @endpoint("tenant.stats")
    def tenant_stats(self, tenant):
        return self.frontend.tenant_report(tenant)

    # ------------------------------------------------------------------
    # Array-wide telemetry

    @endpoint("array.reduction")
    def reduction_report(self):
        report = self.frontend.backend.reduction_report()
        return {
            "data_reduction": report.data_reduction,
            "dedup_ratio": report.dedup_ratio,
            "compression_ratio": report.compression_ratio,
            "thin_provisioning": report.thin_provisioning,
            "logical_live_bytes": report.logical_live_bytes,
            "physical_stored_bytes": report.physical_stored_bytes,
            "provisioned_bytes": report.provisioned_bytes,
        }

    @endpoint("array.health")
    def health_report(self):
        """Degraded-mode telemetry with the service section attached.

        Single array (or passthrough cluster): the full
        :func:`~repro.core.telemetry.degraded_mode_report`. Cluster:
        one row per member — liveness and ladder rung, plus, for an
        alive member, the read-path signals that say whether its shelf
        is reading each chunk once (suspect drives, hedge outcomes,
        direct vs. reconstructed reads) — and the service section.
        """
        frontend = self.frontend
        backend = frontend.backend
        if not frontend._is_cluster:
            return degraded_mode_report(backend, service=frontend)
        if backend.passthrough:
            return degraded_mode_report(backend.solo, service=frontend)
        nodes = {}
        for node_id, node in backend.nodes.items():
            row = {"alive": node.alive, "ladder": None}
            if node.alive:
                report = degraded_mode_report(node.array)
                row.update(
                    ladder=node.array.degrade.state,
                    suspects=[name for name, drive in report["health"].items()
                              if drive["state"] == SUSPECT],
                    hedge=report["hedge"],
                    direct_reads=report["direct_reads"],
                    reconstructed_reads=report["reconstructed_reads"],
                )
            nodes[node_id] = row
        return {
            "nodes": nodes,
            "lost_volumes": sorted(backend.mdm.lost),
            "service": frontend.service_report(),
        }

    @endpoint("service.stats")
    def service_stats(self):
        return self.frontend.service_report()

    # ------------------------------------------------------------------

    def _snapshot_names(self, volume):
        frontend = self.frontend
        backend = frontend.backend
        if not frontend._is_cluster:
            return backend.volumes.snapshot_names(volume)
        if backend.passthrough:
            return backend.solo.volumes.snapshot_names(volume)
        primary = backend.mdm.routing(volume)[0]
        return backend.nodes[primary].array.volumes.snapshot_names(volume)
