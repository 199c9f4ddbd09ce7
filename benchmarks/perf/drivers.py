"""Drivers: run a tape against the public surface and check every byte.

:class:`ArrayDriver` is the closed-loop client of one ``PurityArray``;
:class:`ServiceDriver` offers an open-loop request schedule to
``ManagementAPI`` + ``ServiceFrontend`` over a ``Cluster``. Both keep a
:class:`Shadow` model (plain bytearrays) of what every volume must
contain, compare every read against it, and run a full-volume verify
at the end. A wrong byte, a raised exception, a shed request or a
mismatching verify chunk is a failed op: counted, reported, never fatal
and never skipped.

One repetition is: healthy timed phase (:meth:`run`) → crash → recover
straight after its last op, nothing drained or settled first
(:meth:`recover`) → degraded timed phase on the recovered system
(:meth:`run_degraded`) → full verify on the degraded shelf (:meth:`verify`).
"""

import dataclasses
import time
import traceback

from repro.cluster import Cluster, ClusterConfig
from repro.core.array import PurityArray
from repro.service import ManagementAPI, ServiceConfig, ServiceFrontend
from repro.units import KIB

from benchmarks.perf.workloads import FAILED_DRIVES

#: Post-recovery verify reads volumes in chunks of this size; each chunk
#: is one attempted op.
VERIFY_CHUNK = 256 * KIB

_clock = time.perf_counter_ns


class Shadow:
    """What every volume and snapshot must contain, byte for byte."""

    def __init__(self):
        self.volumes = {}
        self.snapshots = {}

    def create(self, name, size):
        self.volumes[name] = bytearray(size)

    def write(self, name, offset, data):
        self.volumes[name][offset:offset + len(data)] = data

    def unmap(self, name, offset, length):
        self.volumes[name][offset:offset + length] = bytes(length)

    def snapshot(self, name, snap):
        self.snapshots[name, snap] = bytes(self.volumes[name])

    def clone(self, name, snap, new_name):
        self.volumes[new_name] = bytearray(self.snapshots[name, snap])

    def destroy_volume(self, name):
        del self.volumes[name]

    def destroy_snapshot(self, name, snap):
        del self.snapshots[name, snap]

    def expect(self, name, offset, length):
        return self.volumes[name][offset:offset + length]


class Recorder:
    """What one repetition measured, per op class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: First few failures, for the results JSON.
        self.errors = []
        #: Index of the benchmark op in flight (-1 between ops); the
        #: tracer stamps it on every span.
        self.op = -1
        #: True once drives have been pulled: reads change class.
        self.degraded = False
        self.sim = {"write": [], "read": [], "degraded_read": []}
        self.user_bytes = {"write": 0, "read": 0}
        #: (class, host ns) of every timed op in issue order, and of the
        #: call into the program inside every I/O (the op without the
        #: driver's own shadow bookkeeping).
        self.op_ns = []
        self.io_ns = []
        #: Sim latencies of reads and writes in issue order, with the
        #: positions at which a GC pass ran (for the GC-stall metric).
        self.io_sim = []
        self.gc_marks = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    @property
    def read_class(self):
        return "degraded_read" if self.degraded else "read"

    def note_io(self, cls, host_ns, sim_latency, nbytes):
        self.io_ns.append((cls, host_ns))
        self.sim[cls].append(sim_latency)
        self.io_sim.append(sim_latency)
        self.user_bytes["write" if cls == "write" else "read"] += nbytes

    def check_read(self, shadow, name, offset, data, where):
        if data != shadow.expect(name, offset, len(data)):
            self.fail("%s: wrong bytes at %s+%d (%d bytes)"
                      % (where, name, offset, len(data)))


def _settle(driver):
    """Set-up's last step: advance the sim clock until no drive has a
    preload program queued, so the timed phase starts on idle drives."""
    advance = driver.cluster.advance if driver.cluster else \
        driver.arrays[0].clock.advance
    while any(drive.queue_depth() for array in driver.arrays
              for drive in array.shelf.drives):
        advance(0.05)


def _pull_drives(array, count):
    for drive in array.shelf.drives[:count]:
        array.fail_drive(drive.name)


def _verify(array, shadow, rec, where):
    """Full verify of every shadowed volume, one op per chunk."""
    for name, expected in sorted(shadow.volumes.items()):
        for offset in range(0, len(expected), VERIFY_CHUNK):
            length = min(VERIFY_CHUNK, len(expected) - offset)
            rec.attempted += 1
            try:
                data, _latency = array.read(name, offset, length)
            except Exception:
                rec.fail("%s verify raised: %s"
                         % (where, traceback.format_exc(limit=1)))
                continue
            rec.check_read(shadow, name, offset, data, where + " verify")


class ArrayDriver:
    """Closed loop: the next I/O is issued when the previous returns.

    One client, except where the workload's ``clients`` constant says
    otherwise (``snap_clone_churn``: 4, reason at the constant): then
    that many I/Os are issued at one sim instant and the next batch when
    the slowest of them has returned."""

    #: What :class:`ServiceDriver` has and a bare array does not.
    frontend = cluster = None
    completions = ()
    backlog_end = 0

    def __init__(self, workload, c, tape, rec):
        self.config = workload.array_config(c)
        self.clients = c.get("clients", 1)
        self._in_flight = 0
        self._slowest = 0.0
        self.rec = rec
        self.shadow = Shadow()
        self.array = PurityArray.create(self.config)
        for name, size in tape.volumes:
            self.array.create_volume(name, size)
            self.shadow.create(name, size)
        for _verb, name, offset, data in tape.preload:
            self.array.write(name, offset, data)
            self.shadow.write(name, offset, data)
        self.array.drain()
        self.tape = tape
        self._played = 0
        _settle(self)

    @property
    def arrays(self):
        return [self.array]

    def enable_obs_tracing(self):
        self.array.obs.enable_tracing()

    def run(self):
        """The healthy timed phase."""
        self._play(self.tape.ops)

    def run_degraded(self):
        """The degraded timed phase: persist, pull drives, empty the
        caches, read through reconstruction."""
        self._play(self.tape.degraded)

    def _play(self, ops):
        rec = self.rec
        for op in ops:
            rec.op = self._played
            self._played += 1
            rec.attempted += 1
            start = _clock()
            try:
                if op[0] not in ("write", "read"):
                    self._await_batch()
                getattr(self, "_" + op[0])(*op[1:])
            except Exception:
                rec.fail("op %d %s raised: %s"
                         % (rec.op, op[0], traceback.format_exc(limit=1)))
            cls = rec.read_class if op[0] == "read" else op[0]
            rec.op_ns.append((cls, _clock() - start))
        self._await_batch()
        rec.op = -1

    def _issued(self, latency):
        """One more I/O is in flight; a full batch completes together."""
        self._in_flight += 1
        self._slowest = max(self._slowest, latency)
        if self._in_flight == self.clients:
            self._await_batch()

    def _await_batch(self):
        self.array.clock.advance(self._slowest)
        self._in_flight = 0
        self._slowest = 0.0

    # -- tape verbs -----------------------------------------------------

    def _write(self, name, offset, data):
        start = _clock()
        latency = self.array.write(name, offset, data, advance_clock=False)
        self.rec.note_io("write", _clock() - start, latency, len(data))
        self.shadow.write(name, offset, data)
        self._issued(latency)

    def _read(self, name, offset, length):
        start = _clock()
        data, latency = self.array.read(name, offset, length,
                                        advance_clock=False)
        self.rec.note_io(self.rec.read_class, _clock() - start, latency, length)
        self.rec.check_read(self.shadow, name, offset, data, "read")
        self._issued(latency)

    def _unmap(self, name, offset, length):
        self.array.unmap(name, offset, length)
        self.shadow.unmap(name, offset, length)

    def _snapshot(self, name, snap):
        self.array.snapshot(name, snap)
        self.shadow.snapshot(name, snap)

    def _clone(self, name, snap, new_name):
        self.array.clone(name, snap, new_name)
        self.shadow.clone(name, snap, new_name)

    def _destroy_volume(self, name):
        self.array.destroy_volume(name)
        self.shadow.destroy_volume(name)

    def _destroy_snapshot(self, name, snap):
        self.array.destroy_snapshot(name, snap)
        self.shadow.destroy_snapshot(name, snap)

    def _gc(self):
        self.rec.gc_marks.append(len(self.rec.io_sim))
        self.array.run_gc()

    def _drain(self):
        self.array.drain()

    def _drop_caches(self):
        self.array.datapath.drop_caches()

    def _fail_drives(self, count):
        _pull_drives(self.array, count)
        self.rec.degraded = True

    # -- after the timed phase ------------------------------------------

    def data_reduction(self):
        return self.array.reduction_report().data_reduction

    def recover(self):
        """crash() → recover() as the last op left the array: NVRAM holds
        what was not yet drained and the drives are still programming.
        Returns (sim seconds, host seconds, raw writes replayed)."""
        shelf, boot_region, clock = self.array.crash()
        start = _clock()
        self.array, report = PurityArray.recover(
            self.config, shelf, boot_region, clock, obs=self.array.obs)
        return (report.total_latency, (_clock() - start) / 1e9,
                report.raw_writes_replayed)

    def verify(self):
        _verify(self.array, self.shadow, self.rec, "post-recovery")


class TimedBackend:
    """The cluster as the front end sees it, with read/write timed.

    ``ServiceFrontend`` dispatches inside its own loop, so host time per
    backend call cannot be taken around a driver call; this stand-in
    takes it at the front end's only door to the backend instead.
    Everything else is the cluster's own attribute.
    """

    def __init__(self, backend, rec):
        self._backend = backend
        self._rec = rec
        self._dispatched = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _timed(self, cls, call, *args, **kwargs):
        rec = self._rec
        rec.op = self._dispatched
        self._dispatched += 1
        start = _clock()
        try:
            return call(*args, **kwargs)
        finally:
            elapsed = _clock() - start
            rec.op = -1
            rec.io_ns.append((cls, elapsed))
            rec.op_ns.append((cls, elapsed))

    def write(self, *args, **kwargs):
        return self._timed("write", self._backend.write, *args, **kwargs)

    def read(self, *args, **kwargs):
        return self._timed(self._rec.read_class, self._backend.read,
                           *args, **kwargs)


class ServiceDriver:
    """Open loop: requests arrive on the sim clock whatever the progress."""

    def __init__(self, workload, c, tape, rec):
        self.rec = rec
        self.shadow = Shadow()
        base = workload.array_config(c)
        self.cluster = Cluster(
            ClusterConfig(num_arrays=c["arrays"], replication=c["replication"]),
            array_configs=[dataclasses.replace(base, seed=base.seed + index)
                           for index in range(c["arrays"])],
        )
        self.frontend = ServiceFrontend(TimedBackend(self.cluster, rec),
                                        ServiceConfig())
        self.api = ManagementAPI(self.frontend)
        for index, ((name, size), priority) in enumerate(
                zip(tape.volumes, c["tenants"])):
            tenant = "t%d" % index
            self.api.call("tenant.create", tenant=tenant, priority=priority)
            self.api.call("volume.create", tenant=tenant, volume=name, size=size)
            self.shadow.create(name, size)
        # Preload is set-up, not offered load: it bypasses the queues.
        for _verb, name, offset, data in tape.preload:
            self.cluster.write(name, offset, data)
            self.shadow.write(name, offset, data)
        for array in self.arrays:
            array.drain()
        self.tape = tape
        #: Requests still queued when the offered window closed.
        self.backlog_end = 0
        self.completions = []
        _settle(self)

    @property
    def arrays(self):
        return [node.array for node in self.cluster.nodes.values()]

    def enable_obs_tracing(self):
        self.cluster.enable_tracing()

    def _offer(self, requests):
        """Submit ``requests`` at their arrival times and serve them."""
        rec = self.rec
        frontend = self.frontend
        start = frontend.clock.now
        for at, verb, name, offset, payload in requests:
            if verb == "write":
                frontend.submit_write(name, offset, payload, at=start + at)
            else:
                frontend.submit_read(name, offset, payload, at=start + at)
        rec.attempted += len(requests)
        done = list(frontend.run(until=start + requests[-1][0]))
        self.backlog_end += len(requests) - len(done)
        done += frontend.run()
        # Completions come back in dispatch order, which is the order
        # the backend saw them: replay it on the shadow.
        for completion in done:
            request = completion.request
            cls = "write" if request.op == "write" else rec.read_class
            if not completion.ok:
                rec.fail("request %d %s: %s" % (
                    request.seq, completion.verdict,
                    completion.error or completion.reason))
                continue
            rec.sim[cls].append(completion.latency)
            if cls == "write":
                rec.user_bytes["write"] += len(request.data)
                self.shadow.write(request.volume, request.offset, request.data)
            else:
                rec.user_bytes["read"] += request.length
                rec.check_read(self.shadow, request.volume, request.offset,
                               completion.data, "read")
        self.completions += done

    def run(self):
        """The healthy timed phase: the offered load."""
        self._offer(self.tape.ops)

    def run_degraded(self):
        """The degraded timed phase: as :func:`workloads._degraded_phase`,
        on every member, then more reads offered."""
        for array in self.arrays:
            array.drain()
            _pull_drives(array, FAILED_DRIVES)
            array.datapath.drop_caches()
        # The front end serves one request at a time: offered while the
        # drives still program that flush, the first reads take
        # milliseconds and every later arrival queues behind them
        # (measured p50 26-829 ms, against 163-240 us once they idle).
        _settle(self)
        self.rec.degraded = True
        self._offer(self.tape.degraded)

    def data_reduction(self):
        return self.api.call("array.reduction")["data_reduction"]

    def recover(self):
        """Kill and revive one member (its recovery advances the sim
        clock); returns as :meth:`ArrayDriver.recover` does, except that
        the cluster keeps the member's RecoveryReport to itself.

        A recovery that a device stall stretches past ``suspect_after``
        (0.75 s; 1 tape in 10) gets the member suspected, and the cluster
        then copies all 4 MiB back onto it: 1.7 s of host time that
        landed in the degraded phase of those tapes alone (3.0 s without
        it). The copies are awaited here, in the host time of recovery.
        """
        node_id = sorted(self.cluster.nodes)[0]
        before = self.cluster.clock.now
        start = _clock()
        self.cluster.kill(node_id)
        self.cluster.revive(node_id)
        recovery_s = self.cluster.clock.now - before
        self.cluster.pump()
        self.cluster.settle()
        return (recovery_s, (_clock() - start) / 1e9, 0)

    def verify(self):
        for node_id, node in sorted(self.cluster.nodes.items()):
            _verify(node.array, self.shadow, self.rec,
                    "post-recovery %s" % node_id)
