"""Asynchronous replication between two arrays."""

import pytest

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.replication import AsyncReplicator
from repro.errors import ReplicationError
from repro.sim.clock import SimClock
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes


@pytest.fixture
def pair():
    clock = SimClock()
    source = PurityArray.create(ArrayConfig.small(seed=1), clock=clock)
    target = PurityArray.create(ArrayConfig.small(seed=2), clock=clock)
    source.create_volume("v", 2 * MIB)
    return source, target


def test_first_cycle_ships_full_content(pair, stream):
    source, target = pair
    payload = unique_bytes(32 * KIB, stream)
    source.write("v", 0, payload)
    replicator = AsyncReplicator(source, target)
    cycle = replicator.replicate("v")
    assert cycle.bytes_shipped >= 32 * KIB
    data, _ = target.read("v", 0, 32 * KIB)
    assert data == payload


def test_zero_ranges_not_shipped(pair, stream):
    source, target = pair
    source.write("v", 0, unique_bytes(16 * KIB, stream))
    replicator = AsyncReplicator(source, target)
    cycle = replicator.replicate("v")
    # 2 MiB volume, 16 KiB written: shipping must be near the written size.
    assert cycle.bytes_shipped < 128 * KIB
    assert cycle.bytes_examined == 2 * MIB


def test_incremental_cycle_ships_only_delta(pair, stream):
    source, target = pair
    source.write("v", 0, unique_bytes(64 * KIB, stream))
    replicator = AsyncReplicator(source, target)
    first = replicator.replicate("v")
    delta = unique_bytes(16 * KIB, stream)
    source.write("v", 256 * KIB, delta)
    second = replicator.replicate("v")
    assert second.bytes_shipped < first.bytes_shipped
    assert second.bytes_shipped <= 64 * KIB
    data, _ = target.read("v", 256 * KIB, 16 * KIB)
    assert data == delta
    # First-cycle content is still intact on the target.
    original, _ = target.read("v", 0, 16 * KIB)
    source_view, _ = source.read("v", 0, 16 * KIB)
    assert original == source_view


def test_replication_is_crash_consistent_snapshot(pair, stream):
    """Writes racing the cycle are not torn into the shipped image."""
    source, target = pair
    stable = unique_bytes(16 * KIB, stream)
    source.write("v", 0, stable)
    replicator = AsyncReplicator(source, target)
    replicator.replicate("v")
    # Overwrite after the snapshot: the target keeps the snapshot view
    # until the next cycle.
    source.write("v", 0, unique_bytes(16 * KIB, stream))
    data, _ = target.read("v", 0, 16 * KIB)
    assert data == stable


def test_multiple_cycles_converge(pair, stream):
    source, target = pair
    replicator = AsyncReplicator(source, target)
    for round_number in range(3):
        source.write(
            "v", round_number * 64 * KIB, unique_bytes(32 * KIB, stream)
        )
        replicator.replicate("v")
    for round_number in range(3):
        offset = round_number * 64 * KIB
        source_data, _ = source.read("v", offset, 32 * KIB)
        target_data, _ = target.read("v", offset, 32 * KIB)
        assert source_data == target_data


def test_size_mismatch_rejected(pair):
    source, target = pair
    target.create_volume("v", MIB)  # wrong size
    replicator = AsyncReplicator(source, target)
    with pytest.raises(ReplicationError):
        replicator.replicate("v")


def test_link_accounting(pair, stream):
    source, target = pair
    source.write("v", 0, unique_bytes(64 * KIB, stream))
    replicator = AsyncReplicator(source, target)
    cycle = replicator.replicate("v")
    assert cycle.link_seconds > 0
    assert replicator.total_bytes_shipped() == cycle.bytes_shipped


def test_old_replication_snapshots_cleaned_up(pair, stream):
    source, target = pair
    replicator = AsyncReplicator(source, target)
    source.write("v", 0, unique_bytes(16 * KIB, stream))
    replicator.replicate("v")
    source.write("v", 0, unique_bytes(16 * KIB, stream))
    replicator.replicate("v")
    snapshots = source.volumes.snapshot_names("v")
    assert len(snapshots) == 1  # only the newest cycle's snapshot remains


def test_zeroes_reach_the_target(pair, stream):
    """A zero-write, an unmap, and stale bytes on a pre-existing target
    are all replicated: after every cycle the target volume reads back
    exactly the snapshot that cycle shipped."""
    source, target = pair
    target.create_volume("v", 2 * MIB)
    target.write("v", 512 * KIB, unique_bytes(64 * KIB, stream))
    replicator = AsyncReplicator(source, target)
    steps = [
        lambda: source.write("v", 0, unique_bytes(128 * KIB, stream)),
        lambda: source.write("v", 0, bytes(64 * KIB)),
        lambda: source.unmap("v", 64 * KIB, 64 * KIB),
    ]
    for index, step in enumerate(steps):
        step()
        cycle = replicator.replicate("v")
        source.clone("v", cycle.snapshot_name, "image%d" % index)
        image, _ = source.read("image%d" % index, 0, 2 * MIB)
        replica, _ = target.read("v", 0, 2 * MIB)
        assert replica == image
