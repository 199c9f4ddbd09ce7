"""High availability: dual controllers over shared shelves (Figure 2).

Clients treat ports on both controllers interchangeably (active-active
networking), but only one controller serves traffic; the other forwards
requests over internal InfiniBand, which is the throughput bottleneck
of current arrays. When the secondary fails, latencies *improve*
slightly (no more forwarding). When the primary fails, the secondary —
whose cache the primary warms asynchronously — takes over by running
recovery over the shared drives; with the frontier set, that completes
far inside the 30-second client I/O timeout.
"""

from dataclasses import dataclass

from repro.core.array import PurityArray
from repro.errors import ControllerError
from repro.sim.rand import RandomStream
from repro.units import MICROSECOND

#: Clients time out and declare the array dead after this long.
CLIENT_TIMEOUT_SECONDS = 30.0
#: Extra latency of a request forwarded from the standby's ports over
#: the internal InfiniBand link.
IB_FORWARD_LATENCY = 15 * MICROSECOND
#: Share of the patch-load cost the standby's asynchronously warmed
#: cache saves at takeover.
WARM_CACHE_FRACTION = 0.8


@dataclass
class FailoverResult:
    """Outcome of a controller failover."""

    downtime: float
    recovery_report: object

    @property
    def within_client_timeout(self):
        return self.downtime < CLIENT_TIMEOUT_SECONDS


class DualControllerArray:
    """The two-controller appliance wrapper."""

    def __init__(self, config=None, secondary_port_fraction=0.5):
        self.active = PurityArray.create(config)
        self.config = self.active.config
        self.clock = self.active.clock
        self.secondary_port_fraction = secondary_port_fraction
        self.secondary_alive = True
        self.failovers = 0
        self._stream = RandomStream(self.config.seed).fork("ha")

    def _forwarding_penalty(self):
        """Extra latency when the request lands on the standby's ports."""
        if not self.secondary_alive:
            return 0.0
        if self._stream.random() < self.secondary_port_fraction:
            return IB_FORWARD_LATENCY
        return 0.0

    # ------------------------------------------------------------------
    # Client path

    def create_volume(self, name, size):
        return self.active.create_volume(name, size)

    def write(self, volume, offset, data):
        """Client write via either controller's ports."""
        penalty = self._forwarding_penalty()
        latency = self.active.write(volume, offset, data) + penalty
        if penalty:
            self.clock.advance(penalty)
        return latency

    def read(self, volume, offset, length):
        """Client read via either controller's ports."""
        penalty = self._forwarding_penalty()
        data, latency = self.active.read(volume, offset, length)
        if penalty:
            self.clock.advance(penalty)
        return data, latency + penalty

    def snapshot(self, volume, name):
        return self.active.snapshot(volume, name)

    def clone(self, volume, snapshot_name, new_volume):
        return self.active.clone(volume, snapshot_name, new_volume)

    @property
    def degraded_mode(self):
        """The serving controller's degradation-ladder state.

        This is the client-visible operating mode, and it survives
        failovers: the ladder is rebuilt from substrate evidence (failed
        drives, a torn NVRAM mirror) when the standby boots, not copied
        from the dead controller's memory.
        """
        return self.active.degrade.state

    # ------------------------------------------------------------------
    # Failure handling

    def fail_secondary(self):
        """Lose the standby: service continues, latencies improve."""
        if not self.secondary_alive:
            raise ControllerError("secondary is already down")
        self.secondary_alive = False

    def fail_primary(self):
        """Lose the serving controller: the standby recovers and takes over.

        The interposers hand the drives to the survivor; the survivor's
        warmed cache discounts patch loads. Returns a FailoverResult.
        """
        if not self.secondary_alive:
            raise ControllerError(
                "both controllers down: the array is unavailable"
            )
        shelf, boot_region, clock = self.active.crash()
        from repro.core.recovery import recover_array

        before = clock.now
        survivor, report = recover_array(
            PurityArray,
            self.config,
            shelf,
            boot_region,
            clock,
            warm_cache_fraction=WARM_CACHE_FRACTION,
        )
        downtime = clock.now - before
        self.active = survivor
        self.secondary_alive = False
        self.failovers += 1
        return FailoverResult(downtime=downtime, recovery_report=report)

    def replace_failed_controller(self):
        """Install a fresh standby (the 4-hour-SLA service call)."""
        if self.secondary_alive:
            raise ControllerError("both controller slots are already filled")
        self.secondary_alive = True
