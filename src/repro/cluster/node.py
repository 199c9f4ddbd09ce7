"""An array node: one Purity engine behind a message-passing facade.

The node owns a full :class:`~repro.core.array.PurityArray` built over
the cluster's shared :class:`~repro.sim.clock.SimClock`, with its own
``ArrayConfig``, its own seeded device streams, and its own
:class:`~repro.obs.trace.Observability` — private metrics registry,
*shared* :class:`~repro.obs.trace.TraceBuffer` — so N engines coexist
in one process with per-node metric scoping while every span lands in
one cluster-wide trace.

Every client-facing entry point (``handle_write`` / ``handle_read``)
is a message handler: it validates liveness (killed nodes raise
:class:`~repro.errors.ArrayDownError`) and the placement epoch the
caller stamped on the message. An older epoch is rejected with
:class:`~repro.errors.StaleEpochError` — the caller's map may route to
an array that no longer owns the volume — while a *newer* epoch is
adopted on the spot (the node learns the map moved forward without a
separate push).

``kill``/``revive`` reuse the single-array controller failover: kill
crashes the controller (the drive substrate survives), revive runs
``PurityArray.recover`` over it. A revived node's data is stale — it
missed every write acknowledged while it was down — which is why the
MDM treats rejoin as a join with refresh copies, never as a clean
member (see :mod:`repro.cluster.mdm`).
"""

from repro.cluster.config import HEARTBEAT_INTERVAL
from repro.cluster.fabric import MDM_ADDRESS
from repro.core.array import PurityArray
from repro.errors import ArrayDownError, StaleEpochError, UnreachableError
from repro.obs.trace import Observability


class ArrayNode:
    """One member array plus its membership/heartbeat plumbing."""

    def __init__(self, node_id, config, clock, buffer=None):
        self.node_id = node_id
        self.config = config
        self.clock = clock
        self.obs = Observability(clock, buffer=buffer)
        self.array = PurityArray(config=config, clock=clock, obs=self.obs)
        self.array.pipeline.checkpoint()
        #: The placement epoch this node has adopted.
        self.epoch = 0
        self.alive = True
        #: Volumes provisioned on this node (survive kill/revive: the
        #: substrate keeps them; recovery rebuilds the relations).
        self._volumes = {}
        # Heartbeat wiring (installed by start_heartbeats).
        self._loop = None
        self._mdm = None
        self._fabric = None

    # ------------------------------------------------------------------
    # Membership

    def start_heartbeats(self, loop, mdm, fabric):
        """Begin the periodic heartbeat to the MDM on the event loop."""
        self._loop = loop
        self._mdm = mdm
        self._fabric = fabric
        loop.call_in(HEARTBEAT_INTERVAL, self._heartbeat)

    def _heartbeat(self):
        if not self.alive:
            # A killed controller sends nothing and stops rescheduling;
            # revive() restarts the cycle.
            return
        try:
            self._fabric.deliver(self.node_id, MDM_ADDRESS)
        except UnreachableError:
            # Partitioned: the beat is dropped; the MDM's silence
            # timers do the rest. Counted so a trace of a partition
            # window shows the missing beats.
            self.obs.metrics.counter("cluster.heartbeats_dropped").inc()
        else:
            self._mdm.heartbeat(self.node_id)
        self._loop.call_in(HEARTBEAT_INTERVAL, self._heartbeat)

    # ------------------------------------------------------------------
    # Lifecycle

    def kill(self):
        """Crash the controller; the drive substrate survives."""
        if not self.alive:
            return
        self.alive = False
        self._shelf, self._boot_region, _clock = self.array.crash()

    def revive(self):
        """Recover a controller over the surviving substrate and rejoin.

        Keeps this node's ``obs`` (and with it the shared trace buffer)
        across the failover, exactly as single-array recovery does.
        """
        if self.alive:
            return
        self.array, _report = PurityArray.recover(
            self.config, self._shelf, self._boot_region, self.clock,
            obs=self.obs,
        )
        self.alive = True
        if self._loop is not None:
            # Announce immediately — the MDM sees a heartbeat from a
            # dead member and runs the rejoin protocol — then resume
            # the periodic cycle.
            self._heartbeat()

    # ------------------------------------------------------------------
    # Message handlers

    def _check(self, epoch):
        if not self.alive:
            raise ArrayDownError(self.node_id)
        if epoch < self.epoch:
            raise StaleEpochError(self.epoch)
        if epoch > self.epoch:
            self.epoch = epoch

    def update_map(self, epoch):
        """MDM push: adopt a newer placement epoch."""
        if self.alive and epoch > self.epoch:
            self.epoch = epoch

    def ensure_volume(self, volume, size):
        """Provision ``volume`` locally if this node has never held it."""
        if not self.alive:
            raise ArrayDownError(self.node_id)
        if volume not in self._volumes:
            self.array.create_volume(volume, size)
            self._volumes[volume] = size

    def handle_write(self, epoch, volume, offset, data, advance_clock=True):
        self._check(epoch)
        return self.array.write(volume, offset, data,
                                advance_clock=advance_clock)

    def handle_read(self, epoch, volume, offset, length, advance_clock=True):
        self._check(epoch)
        return self.array.read(volume, offset, length,
                               advance_clock=advance_clock)

    # Management-plane handlers (service front end / mgmt API). Same
    # liveness + epoch discipline as the data path: a stale caller is
    # told to refresh rather than mutating a volume that may have moved.

    def handle_unmap(self, epoch, volume, offset, length):
        self._check(epoch)
        return self.array.unmap(volume, offset, length)

    def handle_snapshot(self, epoch, volume, snapshot_name):
        self._check(epoch)
        return self.array.snapshot(volume, snapshot_name)

    def handle_destroy_snapshot(self, epoch, volume, snapshot_name):
        self._check(epoch)
        return self.array.destroy_snapshot(volume, snapshot_name)

    def handle_clone(self, epoch, volume, snapshot_name, new_volume):
        self._check(epoch)
        result = self.array.clone(volume, snapshot_name, new_volume)
        self._volumes[new_volume] = self._volumes.get(volume)
        return result

    def handle_destroy_volume(self, epoch, volume):
        self._check(epoch)
        self.array.destroy_volume(volume)
        self._volumes.pop(volume, None)

    # ------------------------------------------------------------------
    # Introspection

    @property
    def degrade_state(self):
        """The wrapped array's degradation-ladder state (oracle tag)."""
        return self.array.degrade.state
