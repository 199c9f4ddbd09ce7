"""Placement property battery: 200+ seeded membership-churn schedules.

Three properties, asserted at every epoch of every schedule:

* **Determinism** — replaying the same membership-event sequence over
  the same volumes reproduces the identical (epoch, assignments) pair
  at every step; placement is a pure function of history.
* **Bounded movement** — a single join or leave moves at most
  ``ceil(V / N)`` volumes, with ``N`` counting the joining/leaving
  member; primary load never exceeds the same cap.
* **No departed placements** — no volume is ever mapped to an array
  that has left the member set (the MDM-level twin: a member the
  failure detector declared dead is routed around).
"""

import math

import pytest

from repro.cluster import PlacementMap, placement_score, primary_cap, \
    ranked_members
from repro.cluster.config import DEAD_AFTER, HEARTBEAT_INTERVAL
from repro.sim.rand import RandomStream

from tests.cluster.conftest import make_cluster

POOL = ["arr%d" % index for index in range(6)]
NUM_VOLUMES = 24
CHURN_STEPS = 12

#: The battery size the issue demands: 200+ distinct seeded schedules.
SCHEDULE_SEEDS = range(210)


def _schedule(seed):
    """One seeded churn schedule: a list of ("join"|"leave", member)."""
    stream = RandomStream(seed).fork("placement-churn")
    present = set(POOL[:3])
    events = []
    for _step in range(CHURN_STEPS):
        absent = [m for m in POOL if m not in present]
        if len(present) <= 1:
            op = "join"
        elif not absent:
            op = "leave"
        else:
            op = "leave" if stream.random() < 0.5 else "join"
        member = stream.choice(sorted(absent if op == "join"
                                      else present))
        events.append((op, member))
        (present.add if op == "join" else present.discard)(member)
    return events


def _build(replication=1):
    placement = PlacementMap(replication=replication)
    placement.set_members(POOL[:3])
    for index in range(NUM_VOLUMES):
        placement.add_volume("vol%02d" % index)
    return placement


def _apply(placement, event):
    op, member = event
    if op == "join":
        return placement.join(member)
    return placement.leave(member)


def _assert_invariants(placement, event, moved):
    members = set(placement.members)
    # Movement bound: ceil(V / N) over the post-event member count. For
    # a join this is the steal cap by construction; for a leave it holds
    # because joins drain overloaded incumbents, so no member ever
    # carries more than the cap it would leave behind.
    bound = primary_cap(NUM_VOLUMES, len(members))
    assert len(moved) <= bound, (event, len(moved), bound)
    if event[0] == "join":
        # The newcomer is never admitted above the cap (incumbents may
        # transiently exceed it after shrink/grow cycles — restoring
        # them in one step would break the movement bound).
        assert placement.primary_load(event[1]) <= placement.cap()
    # Never map a volume to a departed array.
    for volume, replicas in placement.assignments.items():
        assert set(replicas) <= members, (volume, replicas)
        assert len(replicas) == len(set(replicas))


@pytest.mark.parametrize("seed", SCHEDULE_SEEDS)
def test_churn_schedule_properties(seed):
    events = _schedule(seed)
    first = _build()
    second = _build()
    for event in events:
        epoch_a, moved_a = _apply(first, event)
        epoch_b, moved_b = _apply(second, event)
        # Determinism: identical history, identical map, every epoch.
        assert (epoch_a, moved_a) == (epoch_b, moved_b)
        assert first.assignments == second.assignments
        assert first.members == second.members
        if first.members:
            _assert_invariants(first, event, moved_a)


@pytest.mark.parametrize("seed", [0, 17, 99])
def test_replicated_churn_keeps_replica_sets_legal(seed):
    """Same battery shape at replication=2: replica lists stay within
    the member set, deduplicated, and sized min(rf, N)."""
    events = _schedule(seed)
    placement = _build(replication=2)
    for event in events:
        _apply(placement, event)
        members = set(placement.members)
        want = min(2, len(members))
        for volume, replicas in placement.assignments.items():
            assert set(replicas) <= members
            if replicas:
                assert len(replicas) == want


def test_scores_are_keyed_hashes_not_process_hash():
    assert placement_score("vol0", "arr0") == placement_score("vol0",
                                                              "arr0")
    assert placement_score("vol0", "arr0") != placement_score("vol0",
                                                              "arr1")
    ranked = ranked_members("vol0", POOL)
    assert sorted(ranked) == sorted(POOL)
    assert ranked == ranked_members("vol0", list(reversed(POOL)))


def test_primary_cap_formula():
    assert primary_cap(24, 3) == 8
    assert primary_cap(25, 3) == 9
    assert primary_cap(1, 4) == 1
    assert primary_cap(0, 3) == 0
    assert primary_cap(5, 0) == 0
    assert primary_cap(NUM_VOLUMES, 5) == math.ceil(NUM_VOLUMES / 5)


def test_join_steal_list_is_capped_and_keeps_incumbent_as_secondary():
    placement = _build(replication=2)
    epoch_before = placement.epoch
    _epoch, moved = placement.join("arr5")
    assert placement.epoch == epoch_before + 1
    assert len(moved) <= primary_cap(NUM_VOLUMES, 4)
    for volume, (old, new) in moved.items():
        if new[0] == "arr5":
            # The displaced primary still holds the bytes: it must stay
            # on as a secondary while the newcomer's copy runs.
            assert old[0] in new


def test_leave_prefers_the_mdm_chosen_clean_primary():
    placement = _build(replication=2)
    victim = placement.members[0]
    preferred = {}
    for volume in placement.volumes_on(victim, primary_only=True):
        survivors = [m for m in placement.replicas(volume) if m != victim]
        if survivors:
            preferred[volume] = survivors[-1]
    _epoch, moved = placement.leave(victim,
                                    preferred_primaries=preferred)
    for volume, choice in preferred.items():
        assert placement.primary(volume) == choice
    assert all(victim not in new for _old, new in moved.values())


def test_last_member_leaving_orphans_every_volume():
    placement = PlacementMap(replication=1)
    placement.set_members(["arr0"])
    placement.add_volume("vol0")
    _epoch, moved = placement.leave("arr0")
    assert placement.replicas("vol0") == ()
    assert "vol0" in moved


@pytest.mark.parametrize("seed", [5, 21])
def test_mdm_never_routes_to_a_dead_array(seed):
    """The MDM-level twin of the departed-placement property: once the
    failure detector declares a member dead, no volume routes to it."""
    cluster = make_cluster(3, seed=seed,
                           volumes=["vol%d" % i for i in range(4)])
    victim = sorted(cluster.nodes)[seed % 3]
    cluster.kill(victim)
    cluster.advance(DEAD_AFTER + 2 * HEARTBEAT_INTERVAL)
    assert cluster.mdm.status(victim) == "dead"
    for volume in ["vol%d" % i for i in range(4)]:
        assert victim not in cluster.mdm.routing(volume)
    cluster.settle()
