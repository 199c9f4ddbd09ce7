"""The metadata manager: membership, placement, and replica hygiene.

The MDM is the cluster's single source of truth (the paper's two-HA-
controller story scaled out: one small, replicable brain over N dumb
data arrays). It owns three interlocking pieces of state:

**Membership** — each node is ``alive``, ``suspect``, or ``dead``,
driven entirely by heartbeat timestamps on the simulated clock: silence
past ``SUSPECT_AFTER`` makes a member suspect (skipped by writes, no
new placements), past ``DEAD_AFTER`` makes it dead (its volumes are
rebalanced away). A heartbeat from a suspect member restores it; a
heartbeat from a dead member runs the rejoin protocol. Both paths mark
the returning node's replicas *dirty* — it missed writes while away —
and schedule refresh copies before the node can serve again.

**Placement** — the epoch-stamped :class:`~repro.cluster.placement.
PlacementMap`. Every membership change mutates the map, bumps the
epoch, and pushes the new epoch to reachable nodes; clients carrying an
older epoch get :class:`~repro.errors.StaleEpochError` from nodes and
refresh from here.

**Clean sets** — per volume, the replicas known to hold every
acknowledged byte. Primaries are only ever chosen from the clean set;
a volume whose clean replicas all die is *detected* loss (reported,
never wrong bytes — the cluster face of the single-array ladder
contract). Refresh copies stream a volume from a clean source to a
dirty replica in rate-limited chunks on the event loop, and the chunk
callback re-reads the source at copy time, so a client write landing
between chunks can never be undone by a stale copy.
"""

from repro.cluster.config import DEAD_AFTER, HEARTBEAT_INTERVAL, SUSPECT_AFTER
from repro.cluster.placement import PlacementMap
from repro.errors import DataLossError

ALIVE = "alive"
SUSPECT = "suspect"
DEAD = "dead"

#: Give up on a refresh copy that cannot find a clean source after
#: this many rescheduled attempts (the schedule generator never
#: produces this; it bounds hand-written pathological scenarios).
COPY_MAX_STALLS = 256

#: Replica-refresh copy pacing: bytes per step and the simulated gap
#: between steps (the cluster analogue of the single-array rebuild
#: governor's rate limit).
COPY_CHUNK_BYTES = 128 * 1024
COPY_INTERVAL = 0.005


class Member:
    """One node's membership record."""

    __slots__ = ("node_id", "status", "last_heartbeat")

    def __init__(self, node_id, now):
        self.node_id = node_id
        self.status = ALIVE
        self.last_heartbeat = now


class MetadataManager:
    """Volume→array placement plus heartbeat-driven membership."""

    def __init__(self, config, clock, loop, fabric, nodes, obs):
        self.config = config
        self.clock = clock
        self.loop = loop
        self.fabric = fabric
        #: node id -> ArrayNode, insertion order fixed at construction.
        self.nodes = nodes
        self.obs = obs
        self.members = {
            node_id: Member(node_id, clock.now) for node_id in nodes
        }
        self.placement = PlacementMap(
            replication=config.effective_replication
        )
        self.placement.set_members(sorted(nodes))
        #: volume -> provisioned size in bytes.
        self.volume_sizes = {}
        #: volume -> set of node ids holding every acknowledged byte.
        self._clean = {}
        #: Volumes whose every clean replica died: detected loss.
        self.lost = set()
        #: (volume, dst) pairs with a refresh copy in flight.
        self._copies_pending = set()
        self._members_alive = obs.metrics.gauge("cluster.members_alive")
        self._epoch_gauge = obs.metrics.gauge("cluster.epoch")
        self._heartbeats = obs.metrics.counter("cluster.heartbeats")
        self._moved = obs.metrics.counter("cluster.rebalance.volumes_moved")
        self._copied = obs.metrics.counter("cluster.rebalance.bytes_copied")
        self._members_alive.set(len(nodes))
        self._ticking = False

    # ------------------------------------------------------------------
    # Views

    def status(self, node_id):
        return self.members[node_id].status

    def alive_members(self):
        return sorted(n for n, m in self.members.items()
                      if m.status == ALIVE)

    def clean_replicas(self, volume):
        return sorted(self._clean.get(volume, ()))

    def pending_copies(self):
        return len(self._copies_pending)

    @property
    def epoch(self):
        return self.placement.epoch

    # ------------------------------------------------------------------
    # Volumes

    def create_volume(self, volume, size):
        """Place and provision a volume on its replica set."""
        epoch, replicas = self.placement.add_volume(volume)
        self.volume_sizes[volume] = size
        for node_id in replicas:
            self.nodes[node_id].ensure_volume(volume, size)
        # Freshly provisioned replicas are identical (all zeros): the
        # whole set starts clean.
        self._clean[volume] = set(replicas)
        self._push_epochs()
        return epoch, replicas

    def clone_volume(self, parent, snapshot, new_volume):
        """Place a clone *pinned* to its parent's replica set.

        The snapshot's bytes already live on the parent's replicas, so
        rendezvous placement would turn a free clone into a data copy.
        The clone is provisioned by ``handle_clone`` on each replica;
        here only the map and clean set are updated.
        """
        parent_replicas = self.routing(parent)
        if not parent_replicas:
            raise DataLossError("volume %s has no replicas" % parent)
        epoch, replicas = self.placement.adopt_volume(
            new_volume, parent_replicas
        )
        self.volume_sizes[new_volume] = self.volume_sizes[parent]
        # The clone starts clean exactly where its parent is clean: a
        # dirty parent replica has a stale snapshot too.
        self._clean[new_volume] = set(self._clean.get(parent, ()))
        self._push_epochs()
        return epoch, replicas

    def destroy_volume(self, volume):
        """Drop a volume from the map, clean sets, and size catalog."""
        self.placement.drop_volume(volume)
        self.volume_sizes.pop(volume, None)
        self._clean.pop(volume, None)
        self.lost.discard(volume)
        self._push_epochs()

    def routing(self, volume):
        """The replica set a client should use right now.

        Raises :class:`~repro.errors.DataLossError` for volumes whose
        acknowledged bytes are provably gone — detected loss, reported
        at routing time rather than served wrong.
        """
        if volume in self.lost:
            raise DataLossError(
                "volume %s lost every clean replica" % volume
            )
        return self.placement.replicas(volume)

    # ------------------------------------------------------------------
    # Heartbeats and the failure detector

    def start(self):
        """Schedule the periodic failure-detector tick."""
        if not self._ticking:
            self._ticking = True
            self.loop.call_in(HEARTBEAT_INTERVAL, self._tick)

    def heartbeat(self, node_id):
        member = self.members[node_id]
        member.last_heartbeat = self.clock.now
        self._heartbeats.inc()
        if member.status == SUSPECT:
            self._restore(member)
        elif member.status == DEAD:
            self._rejoin(member)

    def _tick(self):
        now = self.clock.now
        for node_id in sorted(self.members):
            member = self.members[node_id]
            if member.status == DEAD:
                continue
            silence = now - member.last_heartbeat
            if silence > DEAD_AFTER:
                self._declare_dead(member)
            elif silence > SUSPECT_AFTER and member.status == ALIVE:
                self._suspect(member)
        self.loop.call_in(HEARTBEAT_INTERVAL, self._tick)

    def report_unreachable(self, node_id):
        """Client-side evidence: a message to ``node_id`` bounced.

        Marks the member suspect immediately (no waiting out the
        silence window) and dirties its replicas — writes acknowledged
        from here on may legally skip it.
        """
        member = self.members[node_id]
        if member.status == ALIVE:
            self._suspect(member)

    # ------------------------------------------------------------------
    # Membership transitions

    def _membership_event(self, node_id, to_status, **attrs):
        if self.obs.tracing:
            self.obs.event("cluster.membership", node=node_id,
                           status=to_status, epoch=self.placement.epoch,
                           **attrs)

    def _suspect(self, member):
        member.status = SUSPECT
        # Writes stop waiting on a suspect, so from the next ack on its
        # replicas may be stale: dirty them all now.
        self._dirty_everywhere(member.node_id)
        self._members_alive.set(len(self.alive_members()))
        self._membership_event(member.node_id, SUSPECT)

    def _restore(self, member):
        """A suspect member heartbeated: alive again, but dirty.

        Every volume it holds gets a refresh copy before it counts as
        clean again (it may have missed acknowledged writes while
        writes skipped it).
        """
        member.status = ALIVE
        self._members_alive.set(len(self.alive_members()))
        self._membership_event(member.node_id, ALIVE, via="restore")
        for volume in self.placement.volumes_on(member.node_id):
            self._ensure_clean_copy(volume, member.node_id)

    def _declare_dead(self, member):
        """Silence past ``DEAD_AFTER``: rebalance the member away."""
        member.status = DEAD
        self._dirty_everywhere(member.node_id)
        # Prefer clean survivors as the new primaries — promotion is
        # free and the whole point of synchronous replication.
        preferred = {}
        for volume in self.placement.volumes_on(member.node_id,
                                                primary_only=True):
            clean = [n for n in self.placement.replicas(volume)
                     if n != member.node_id
                     and n in self._clean.get(volume, ())
                     and self.members[n].status == ALIVE]
            if clean:
                preferred[volume] = clean[0]
        epoch, moved = self.placement.leave(
            member.node_id, preferred_primaries=preferred
        )
        self._members_alive.set(len(self.alive_members()))
        self._membership_event(member.node_id, DEAD, moved=len(moved))
        self._apply_moves(moved)
        self._push_epochs()

    def _rejoin(self, member):
        """A dead member heartbeated (revive or healed partition)."""
        member.status = ALIVE
        epoch, moved = self.placement.join(member.node_id)
        self._members_alive.set(len(self.alive_members()))
        self._membership_event(member.node_id, ALIVE, via="rejoin",
                               moved=len(moved))
        self._apply_moves(moved)
        # Everything the returning node holds is stale until refreshed.
        for volume in self.placement.volumes_on(member.node_id):
            self._ensure_clean_copy(volume, member.node_id)
        self._push_epochs()

    def _dirty_everywhere(self, node_id):
        for clean in self._clean.values():
            clean.discard(node_id)

    def _apply_moves(self, moved):
        """React to a placement delta: demote dirty primaries, schedule
        refresh copies for replicas that do not hold the volume's
        acknowledged bytes, and detect volumes with no clean replica.
        """
        if moved:
            self._moved.inc(len(moved))
        for volume in sorted(moved):
            replicas = self.placement.replicas(volume)
            if not replicas:
                self._mark_lost(volume)
                continue
            clean = self._clean.get(volume, set())
            # A replica dropped from the set stops receiving writes, so
            # its copy goes stale on the next ack: it must not linger in
            # the clean set, or a later re-add would skip its refresh.
            clean &= set(replicas)
            self._clean[volume] = clean
            alive_clean = [n for n in replicas if n in clean
                           and self.members[n].status == ALIVE]
            if not alive_clean:
                self._mark_lost(volume)
                continue
            if replicas[0] not in alive_clean:
                # Never expose a dirty primary: reorder so a clean
                # replica serves while the refresh copy runs.
                self._demote(volume, alive_clean[0])
                replicas = self.placement.replicas(volume)
            for node_id in replicas:
                if node_id not in clean:
                    # Provision eagerly so client writes reaching this
                    # replica before its refresh copy starts have a
                    # volume to land in (reachability permitting; the
                    # copy step re-provisions an isolated target).
                    if self.members[node_id].status != DEAD \
                            and self.nodes[node_id].alive \
                            and not self.fabric.isolated(node_id):
                        self.nodes[node_id].ensure_volume(
                            volume, self.volume_sizes[volume]
                        )
                    self._ensure_clean_copy(volume, node_id)

    def _demote(self, volume, clean_primary):
        """Reorder ``volume``'s replica list to lead with a clean one."""
        self.placement.set_primary(volume, clean_primary)

    def _mark_lost(self, volume):
        if volume not in self.lost:
            self.lost.add(volume)
            self._membership_event(volume, "lost")

    # ------------------------------------------------------------------
    # Refresh copies

    def _ensure_clean_copy(self, volume, dst):
        """Schedule a rate-limited refresh of ``volume`` onto ``dst``."""
        if volume in self.lost or dst in self._clean.get(volume, ()):
            return
        key = (volume, dst)
        if key in self._copies_pending:
            return
        self._copies_pending.add(key)
        state = {"offset": 0, "stalls": 0}
        self.loop.call_in(COPY_INTERVAL, self._copy_step, volume, dst, state)

    def _copy_source(self, volume, dst):
        for node_id in self.placement.replicas(volume):
            if node_id == dst:
                continue
            if node_id in self._clean.get(volume, ()) \
                    and self.members[node_id].status == ALIVE \
                    and not self.fabric.isolated(node_id):
                return node_id
        return None

    def _copy_step(self, volume, dst, state):
        """Copy one chunk; the read happens *now*, inside this callback,
        so a client write between chunks is already in the source bytes
        this step streams — the copy can never resurrect stale data."""
        key = (volume, dst)
        if key not in self._copies_pending:
            return
        if volume not in self.placement.assignments \
                or dst not in self.placement.replicas(volume) \
                or self.members[dst].status != ALIVE \
                or volume in self.lost:
            # The world moved on (dst died, volume moved or was lost):
            # abandon this copy; a future placement delta reschedules.
            self._copies_pending.discard(key)
            return
        src = self._copy_source(volume, dst)
        if src is None or self.fabric.isolated(dst):
            state["stalls"] += 1
            if state["stalls"] > COPY_MAX_STALLS:
                self._copies_pending.discard(key)
                self._mark_lost(volume)
                return
            self.loop.call_in(HEARTBEAT_INTERVAL,
                              self._copy_step, volume, dst, state)
            return
        size = self.volume_sizes[volume]
        offset = state["offset"]
        chunk = min(COPY_CHUNK_BYTES, size - offset)
        data, _lat = self.nodes[src].array.read(
            volume, offset, chunk, advance_clock=False
        )
        self.nodes[dst].ensure_volume(volume, size)
        self.nodes[dst].array.write(volume, offset, data,
                                    advance_clock=False)
        self._copied.inc(chunk)
        state["offset"] = offset + chunk
        if state["offset"] >= size:
            self._copies_pending.discard(key)
            self._clean.setdefault(volume, set()).add(dst)
            if self.obs.tracing:
                self.obs.event("cluster.copy", volume=volume, src=src,
                               dst=dst, nbytes=size)
        else:
            self.loop.call_in(COPY_INTERVAL,
                              self._copy_step, volume, dst, state)

    # ------------------------------------------------------------------
    # Epoch distribution

    def _push_epochs(self):
        """Push the current epoch to every reachable alive node."""
        epoch = self.placement.epoch
        self._epoch_gauge.set(epoch)
        for node_id in sorted(self.nodes):
            if self.members[node_id].status == DEAD:
                continue
            if self.fabric.isolated(node_id):
                continue
            self.nodes[node_id].update_map(epoch)
