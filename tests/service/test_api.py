"""Management-API tests: every endpoint, array and cluster backends."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.health import STALL_SUSPECT_THRESHOLD
from repro.service import ENDPOINTS, ManagementAPI, ServiceFrontend
from repro.units import KIB, MIB


@pytest.fixture
def api(frontend):
    return ManagementAPI(frontend)


def seed_volume(api, tenant="acme", volume="acme-db", size=MIB):
    api.call("tenant.create", tenant=tenant, priority="gold")
    api.call("volume.create", tenant=tenant, volume=volume, size=size)
    frontend = api.frontend
    frontend.submit_write(volume, 0, b"\xa5" * (8 * KIB))
    frontend.drain()
    return volume


def test_unknown_endpoint_raises(api):
    with pytest.raises(KeyError):
        api.call("volume.no-such-verb")


def test_every_endpoint_maps_to_a_method():
    for name, method_name in ENDPOINTS.items():
        method = getattr(ManagementAPI, method_name, None)
        assert callable(method), \
            "endpoint %r maps to missing method %r" % (name, method_name)


def test_volume_lifecycle(api):
    seed_volume(api)
    assert api.call("volume.list") == ["acme-db"]
    assert api.call("volume.list", tenant="acme") == ["acme-db"]
    assert api.call("volume.list", tenant="other") == []
    info = api.call("volume.info", volume="acme-db")
    assert info["tenant"] == "acme"
    assert info["size"] == MIB
    assert info["snapshots"] == []
    api.call("volume.destroy", volume="acme-db")
    assert api.call("volume.list") == []


def test_snapshot_and_clone_lifecycle(api):
    seed_volume(api)
    api.call("snapshot.create", volume="acme-db", snapshot="snap0")
    assert api.call("snapshot.list", volume="acme-db") == ["snap0"]
    clone = api.call("clone.create", volume="acme-db", snapshot="snap0",
                     new_volume="acme-db-dev")
    assert clone["tenant"] == "acme"
    assert "acme-db-dev" in api.call("volume.list", tenant="acme")
    # The clone serves the parent's frozen bytes through the front end.
    request = api.frontend.submit_read("acme-db-dev", 0, 8 * KIB)
    api.frontend.run()
    assert api.frontend.completions[-1].request is request
    assert api.frontend.completions[-1].data == b"\xa5" * (8 * KIB)
    api.call("snapshot.destroy", volume="acme-db", snapshot="snap0")
    assert api.call("snapshot.list", volume="acme-db") == []


def test_tenant_endpoints(api):
    api.call("tenant.create", tenant="crm", priority="bronze",
             iops_limit=100.0)
    assert "crm" in api.call("tenant.list")
    api.call("tenant.set-qos", tenant="crm", priority="gold")
    assert api.frontend.tenant_spec("crm").priority == "gold"
    stats = api.call("tenant.stats", tenant="crm")
    assert stats["priority"] == "gold"
    assert stats["queue_depth"] == 0


def test_array_reduction_and_health(api):
    seed_volume(api)
    reduction = api.call("array.reduction")
    assert reduction["provisioned_bytes"] >= MIB
    assert reduction["data_reduction"] >= 1.0
    health = api.call("array.health")
    assert health["ladder"]["state"] == "normal"
    assert health["service"]["tenants"]["acme"]["dispatched"] == 1


def test_service_stats(api):
    seed_volume(api)
    stats = api.call("service.stats")
    assert stats["qos_enabled"] is True
    assert stats["admission"]["admitted"] == 1


def test_api_calls_metered(api):
    before = api.frontend.obs.metrics.counter("service.api.calls").value
    api.call("tenant.list")
    after = api.frontend.obs.metrics.counter("service.api.calls").value
    assert after == before + 1


class TestClusterBackend:

    @pytest.fixture
    def capi(self):
        cluster = Cluster(ClusterConfig(num_arrays=2, seed=29))
        return ManagementAPI(ServiceFrontend(cluster))

    def test_full_surface_over_cluster(self, capi):
        seed_volume(capi, volume="c-db")
        capi.call("snapshot.create", volume="c-db", snapshot="s0")
        assert capi.call("snapshot.list", volume="c-db") == ["s0"]
        capi.call("clone.create", volume="c-db", snapshot="s0",
                  new_volume="c-db-dev")
        request = capi.frontend.submit_read("c-db-dev", 0, 8 * KIB)
        capi.frontend.run()
        assert capi.frontend.completions[-1].request is request
        assert capi.frontend.completions[-1].data == b"\xa5" * (8 * KIB)
        health = capi.call("array.health")
        assert all(row["alive"] for row in health["nodes"].values())
        assert health["lost_volumes"] == []
        for node_id, row in health["nodes"].items():
            reader = capi.frontend.backend.nodes[node_id].array.segreader
            assert row["suspects"] == []
            assert row["hedge"] == reader.hedge.report()
            assert row["direct_reads"] == reader.direct_reads
            assert row["reconstructed_reads"] == reader.reconstructed_reads
        reduction = capi.call("array.reduction")
        assert reduction["provisioned_bytes"] > 0
        capi.call("volume.destroy", volume="c-db-dev")
        assert capi.call("volume.list") == ["c-db"]

    def test_cluster_health_names_suspect_drives_per_member(self, capi):
        cluster = capi.frontend.backend
        first, second = sorted(cluster.nodes)
        array = cluster.nodes[first].array
        name = sorted(array.drives)[0]
        for _strike in range(STALL_SUSPECT_THRESHOLD):
            array.health.note_stalled(name)
        cluster.kill(second)
        nodes = capi.call("array.health")["nodes"]
        assert nodes[first]["suspects"] == [name]
        assert nodes[second] == {"alive": False, "ladder": None}
