"""End-to-end front-end tests over array and cluster backends."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.telemetry import degraded_mode_report
from repro.service import QosSpec, ServiceConfig, ServiceFrontend
from repro.service.frontend import DEFAULT_TENANT
from repro.service.request import OP_UNMAP, VERDICT_SHED
from repro.units import KIB, MIB

from .conftest import provision


def pattern(size, tag):
    return (bytes([tag]) * 512)[:512] * (size // 512)


class TestArrayBackend:

    def test_write_then_read_round_trips(self, frontend):
        provision(frontend, "acme", "acme-db")
        data = pattern(8 * KIB, 7)
        frontend.submit_write("acme-db", 0, data)
        frontend.submit_read("acme-db", 0, 8 * KIB)
        completions = frontend.run()
        assert len(completions) == 2
        assert all(c.ok for c in completions)
        assert completions[1].data == data

    def test_unmap_dispatches(self, frontend):
        provision(frontend, "acme", "acme-db")
        frontend.submit_write("acme-db", 0, pattern(8 * KIB, 3))
        frontend.submit(OP_UNMAP, "acme-db", 0, length=8 * KIB)
        completions = frontend.run()
        assert [c.error for c in completions] == [None, None]

    def test_latency_includes_queue_wait(self, frontend):
        provision(frontend, "acme", "acme-db",
                  spec=QosSpec(iops_limit=10.0, burst_ops=1))
        data = pattern(4 * KIB, 1)
        frontend.submit_write("acme-db", 0, data)
        frontend.submit_write("acme-db", 4 * KIB, data)
        completions = frontend.run()
        # The second write waited ~0.1s for the iops bucket to refill.
        assert completions[1].wait >= 0.09
        assert completions[1].latency >= completions[1].wait

    def test_until_bounds_the_clock(self, frontend):
        provision(frontend, "acme", "acme-db",
                  spec=QosSpec(iops_limit=10.0, burst_ops=1))
        data = pattern(4 * KIB, 2)
        frontend.submit_write("acme-db", 0, data)
        frontend.submit_write("acme-db", 4 * KIB, data)
        first = frontend.run(until=0.01)
        assert len(first) == 1
        assert frontend.scheduler.queued() == 1
        rest = frontend.run()
        assert len(rest) == 1

    def test_future_arrivals_wait_their_turn(self, frontend):
        provision(frontend, "acme", "acme-db")
        data = pattern(4 * KIB, 4)
        frontend.submit_write("acme-db", 0, data, at=0.25)
        completions = frontend.run()
        assert len(completions) == 1
        assert completions[0].start >= 0.25

    def test_unknown_volume_error_is_captured(self, frontend):
        frontend.register_tenant("acme")
        frontend.submit_read("no-such-volume", 0, 4 * KIB)
        completions = frontend.run()
        assert len(completions) == 1
        assert not completions[0].ok
        assert "no-such-volume" in completions[0].error
        report = frontend.tenant_report(DEFAULT_TENANT)
        assert report["errors"] == 1

    def test_queue_full_sheds(self, frontend_factory):
        frontend = frontend_factory(max_queue_depth=2)
        provision(frontend, "acme", "acme-db",
                  spec=QosSpec(iops_limit=1.0, burst_ops=1))
        data = pattern(4 * KIB, 5)
        for index in range(5):
            frontend.submit_write("acme-db", index * 4 * KIB, data)
        completions = frontend.run(until=0.0)
        # All five arrive at t=0: two fill the queue, three shed.
        shed = [c for c in completions if c.verdict == VERDICT_SHED]
        assert len(shed) == 3
        assert all(c.reason == "queue-full" for c in shed)
        assert frontend.stats["acme"].shed == 3

    def test_tenant_and_service_reports(self, frontend):
        provision(frontend, "acme", "acme-db",
                  spec=QosSpec(priority="gold"))
        frontend.submit_write("acme-db", 0, pattern(4 * KIB, 6))
        frontend.run()
        report = frontend.tenant_report("acme")
        assert report["dispatched"] == 1
        assert report["priority"] == "gold"
        assert report["latency_p50"] is not None
        service = frontend.service_report()
        assert service["qos_enabled"] is True
        assert service["tenants"]["acme"]["writes"] == 1

    def test_observe_sample_records_per_tenant_series(self, frontend):
        provision(frontend, "acme", "acme-db",
                  spec=QosSpec(iops_limit=10.0, burst_ops=1))
        data = pattern(4 * KIB, 8)
        frontend.submit_write("acme-db", 0, data)
        frontend.submit_write("acme-db", 4 * KIB, data)
        frontend.run(until=0.0)
        # One write dispatched on the burst; the second is still queued.
        frontend.observe_sample()
        series = frontend.obs.metrics.series("service.queue_depth.acme")
        assert series.points[-1][1] == 1
        total = frontend.obs.metrics.series("service.queue_depth")
        assert total.points[-1][1] == 1
        frontend.run()

    def test_degraded_mode_report_carries_service_section(self, frontend):
        provision(frontend, "acme", "acme-db")
        frontend.submit_write("acme-db", 0, pattern(4 * KIB, 9))
        frontend.drain()
        report = degraded_mode_report(frontend.backend, service=frontend)
        assert report["service"]["tenants"]["acme"]["dispatched"] == 1


class TestDeterminism:

    def run_tape(self, seed):
        array = PurityArray.create(ArrayConfig.small(seed=seed))
        frontend = ServiceFrontend(array, ServiceConfig())
        provision(frontend, "a", "vol-a", spec=QosSpec(priority="gold"))
        provision(frontend, "b", "vol-b",
                  spec=QosSpec(iops_limit=200.0, burst_ops=2))
        for index in range(24):
            at = index * 0.002
            frontend.submit_write(
                "vol-a", (index % 8) * 4 * KIB,
                pattern(4 * KIB, index % 251), at=at)
            frontend.submit_read("vol-b", 0, 4 * KIB, at=at) \
                if index % 2 else frontend.submit_write(
                    "vol-b", 0, pattern(4 * KIB, 17), at=at)
        completions = frontend.drain()
        return [(c.request.seq, c.verdict, round(c.finish, 9))
                for c in completions]

    def test_same_seed_same_schedule(self):
        assert self.run_tape(33) == self.run_tape(33)


class TestClusterBackend:

    @pytest.fixture
    def cluster(self):
        return Cluster(ClusterConfig(num_arrays=2, seed=21))

    def test_same_frontend_drives_cluster(self, cluster):
        frontend = ServiceFrontend(cluster, ServiceConfig())
        provision(frontend, "acme", "c-vol", size=MIB)
        data = pattern(8 * KIB, 11)
        frontend.submit_write("c-vol", 0, data)
        frontend.submit_read("c-vol", 0, 8 * KIB)
        completions = frontend.drain()
        assert all(c.ok for c in completions)
        assert completions[1].data == data

    def test_cluster_signals_resolve(self, cluster):
        frontend = ServiceFrontend(cluster, ServiceConfig())
        provision(frontend, "acme", "c-vol", size=MIB)
        degrade, governor = frontend._signals("c-vol")
        assert degrade is not None
        degrade_missing, _ = frontend._signals("no-such-volume")
        assert degrade_missing is None
