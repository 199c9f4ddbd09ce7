"""The routing client: epoch-stamped I/O with retry and failover.

The client holds a cached placement epoch and routes every operation
with it. Three things can go wrong, each with a deterministic recovery:

* **Stale epoch** — the node rejects with
  :class:`~repro.errors.StaleEpochError`; the client refreshes its
  epoch from the MDM and retries (counted in ``cluster.stale_retries``).
* **Unreachable/down replica** — the client reports the node to the
  MDM (immediate suspicion) and retries against the updated routing;
  a suspect *secondary* is simply skipped — acknowledged writes then
  intentionally exclude it, which is exactly why the MDM dirtied it.
* **Unreachable/down primary** — the client cannot serve without a
  primary, so it waits out the failure detector: it advances the
  event loop one heartbeat interval at a time until the MDM declares
  the member dead and promotes a clean secondary, then retries. The
  wait is bounded by ``REROUTE_BOUND`` simulated seconds, and the
  observed reroute time lands in the ``cluster.reroute.latency``
  histogram — the number the chaos suite asserts against the bound.

Writes are synchronous to every serving replica before the ack: the
primary write advances the shared clock (it is the latency the client
sees), secondaries are charged to their own arrays without advancing
time, modeling replica work proceeding in parallel.
"""

from repro.errors import (
    ArrayDownError,
    ClusterError,
    StaleEpochError,
    UnreachableError,
)

from repro.cluster.config import HEARTBEAT_INTERVAL, REROUTE_BOUND
from repro.cluster.fabric import CLIENT_ADDRESS
from repro.cluster.mdm import ALIVE, DEAD

#: Client retry budget across stale-epoch refreshes and failovers:
#: generous enough to ride out one full failover (refresh, re-route,
#: re-send) with room for a coincident stale epoch, small enough that a
#: genuinely unroutable volume fails fast.
MAX_RETRIES = 8


class ClusterClient:
    """Routes volume I/O by placement epoch; fails over via the MDM."""

    def __init__(self, clock, loop, fabric, mdm, nodes, obs):
        self.clock = clock
        self.loop = loop
        self.fabric = fabric
        self.mdm = mdm
        self.nodes = nodes
        self.obs = obs
        self.epoch = mdm.epoch
        #: Node that served the most recent successful read — the chaos
        #: oracle tags its byte checks with this node's ladder state.
        self.last_read_node = None
        self.last_write_node = None
        #: Sim-clock durations of every primary failover this client
        #: waited out (also recorded as a histogram metric).
        self.reroute_times = []
        self._writes = obs.metrics.counter("cluster.writes")
        self._reads = obs.metrics.counter("cluster.reads")
        self._stale = obs.metrics.counter("cluster.stale_retries")
        self._failovers = obs.metrics.counter("cluster.failovers")
        self._reroute = obs.metrics.histogram("cluster.reroute.latency")

    # ------------------------------------------------------------------
    # Helpers

    def refresh(self):
        """Pull the current placement epoch from the MDM."""
        self.epoch = self.mdm.epoch
        return self.epoch

    def _serving_replicas(self, volume):
        """Replicas a write must reach: primary plus alive secondaries."""
        replicas = self.mdm.routing(volume)
        if not replicas:
            raise ClusterError("volume %s has no replicas" % volume)
        primary = replicas[0]
        serving = [primary]
        serving.extend(
            n for n in replicas[1:] if self.mdm.status(n) == ALIVE
        )
        return primary, serving

    def _report_and_maybe_failover(self, node_id, volume):
        """React to a bounced message: suspect now; if the bounced node
        is the volume's primary, wait for the MDM to declare it dead."""
        self.mdm.report_unreachable(node_id)
        if self.mdm.routing(volume) and \
                self.mdm.routing(volume)[0] == node_id:
            self._await_failover(node_id)
        self.refresh()

    def _await_failover(self, node_id):
        """Advance simulated time until the failure detector declares
        ``node_id`` dead (or it comes back), bounded by
        ``REROUTE_BOUND``. This is where reroute latency comes from."""
        self._failovers.inc()
        span = None
        if self.obs.tracing:
            span = self.obs.begin("cluster.failover", node=node_id)
        start = self.clock.now
        deadline = start + REROUTE_BOUND
        self.mdm.start()
        while self.clock.now < deadline:
            status = self.mdm.status(node_id)
            if status == DEAD:
                break  # declared dead: routing has moved on
            if status == ALIVE and not self.fabric.isolated(node_id) \
                    and self.nodes[node_id].alive:
                break  # it came back (healed partition)
            self.loop.run(until=self.clock.now + HEARTBEAT_INTERVAL)
        elapsed = self.clock.now - start
        self.reroute_times.append(elapsed)
        self._reroute.record(elapsed)
        if span is not None:
            self.obs.end(span, lat=elapsed, status=self.mdm.status(node_id))

    # ------------------------------------------------------------------
    # Client API

    def write(self, volume, offset, data, advance_clock=True):
        """Replicated write; returns the primary's acknowledged latency.

        The ack means every serving replica holds the bytes — the
        zero-acknowledged-loss invariant under single-array failures.
        """
        self._writes.inc()
        span = None
        if self.obs.tracing:
            span = self.obs.begin("cluster.write", volume=volume,
                                  offset=offset, nbytes=len(data))
        try:
            latency = self._write_attempts(volume, offset, data,
                                           advance_clock)
        except BaseException:
            if span is not None:
                self.obs.end(span, failed=True)
            raise
        if span is not None:
            self.obs.end(span, lat=latency)
        return latency

    def _write_attempts(self, volume, offset, data, advance_clock):
        for _attempt in range(MAX_RETRIES):
            primary, serving = self._serving_replicas(volume)
            target = primary
            try:
                latency = None
                for node_id in serving:
                    target = node_id
                    self.fabric.deliver(CLIENT_ADDRESS, node_id)
                    advance = advance_clock and node_id == primary
                    lat = self.nodes[node_id].handle_write(
                        self.epoch, volume, offset, data,
                        advance_clock=advance,
                    )
                    if node_id == primary:
                        latency = lat
                self.last_write_node = primary
                return latency
            except StaleEpochError:
                self._stale.inc()
                if self.obs.tracing:
                    self.obs.event("cluster.stale-epoch", volume=volume,
                                   epoch=self.epoch)
                self.refresh()
            except (ArrayDownError, UnreachableError):
                self._report_and_maybe_failover(target, volume)
        raise ClusterError(
            "write to %s failed after %d attempts"
            % (volume, MAX_RETRIES)
        )

    def manage(self, volume, handler_name, *args):
        """Replicated management verb (snapshot, clone, unmap, destroy).

        Applies the named node handler to every serving replica of
        ``volume`` with the write path's retry/failover discipline, so
        a snapshot exists everywhere a subsequent failover could read
        it. Returns the primary's result.
        """
        for _attempt in range(MAX_RETRIES):
            primary, serving = self._serving_replicas(volume)
            target = primary
            try:
                result = None
                for node_id in serving:
                    target = node_id
                    self.fabric.deliver(CLIENT_ADDRESS, node_id)
                    handler = getattr(self.nodes[node_id], handler_name)
                    out = handler(self.epoch, *args)
                    if node_id == primary:
                        result = out
                return result
            except StaleEpochError:
                self._stale.inc()
                if self.obs.tracing:
                    self.obs.event("cluster.stale-epoch", volume=volume,
                                   epoch=self.epoch)
                self.refresh()
            except (ArrayDownError, UnreachableError):
                self._report_and_maybe_failover(target, volume)
        raise ClusterError(
            "%s on %s failed after %d attempts"
            % (handler_name, volume, MAX_RETRIES)
        )

    def read(self, volume, offset, length, advance_clock=True):
        """Read from the volume's primary; returns (bytes, latency)."""
        self._reads.inc()
        span = None
        if self.obs.tracing:
            span = self.obs.begin("cluster.read", volume=volume,
                                  offset=offset, nbytes=length)
        try:
            data, latency = self._read_attempts(volume, offset, length,
                                               advance_clock)
        except BaseException:
            if span is not None:
                self.obs.end(span, failed=True)
            raise
        if span is not None:
            self.obs.end(span, lat=latency)
        return data, latency

    def _read_attempts(self, volume, offset, length, advance_clock):
        for _attempt in range(MAX_RETRIES):
            replicas = self.mdm.routing(volume)
            if not replicas:
                raise ClusterError("volume %s has no replicas" % volume)
            primary = replicas[0]
            try:
                self.fabric.deliver(CLIENT_ADDRESS, primary)
                data, latency = self.nodes[primary].handle_read(
                    self.epoch, volume, offset, length,
                    advance_clock=advance_clock,
                )
                self.last_read_node = primary
                return data, latency
            except StaleEpochError:
                self._stale.inc()
                if self.obs.tracing:
                    self.obs.event("cluster.stale-epoch", volume=volume,
                                   epoch=self.epoch)
                self.refresh()
            except (ArrayDownError, UnreachableError):
                self._report_and_maybe_failover(primary, volume)
        raise ClusterError(
            "read of %s failed after %d attempts"
            % (volume, MAX_RETRIES)
        )
