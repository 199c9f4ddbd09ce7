"""Drive replace → rebuild round-trips (the Section 1 pulled-drive demo
carried through to full re-protection)."""

from repro.core.health import FAIL_THRESHOLD
from repro.units import KIB

from tests.core.conftest import unique_bytes

RECORD = 16 * KIB


def write_records(array, volume, stream, count, start=0):
    payloads = {}
    for index in range(start, start + count):
        payloads[index] = unique_bytes(RECORD, stream)
        array.write(volume, index * RECORD, payloads[index])
    return payloads


def assert_fully_protected(array):
    """Every sealed segment places every shard on an alive drive."""
    for fact in array.tables.segments.scan():
        for drive_name, _au in fact.value[0]:
            drive = array.drives.get(drive_name)
            assert drive is not None and not drive.failed, (
                "segment %d still has a shard on %s" % (fact.key[0], drive_name)
            )


def read_back(array, volume, payloads):
    for index, expected in payloads.items():
        data, _latency = array.read(volume, index * RECORD, RECORD)
        assert data == expected


def test_fail_replace_rebuild_restores_full_protection(
    array, volume, stream
):
    payloads = write_records(array, volume, stream, 12)
    array.drain()
    victim = next(iter(array.tables.segments.scan())).value[0][0][0]
    array.fail_drive(victim)
    # Service continues degraded: reads reconstruct, writes keep landing.
    payloads.update(write_records(array, volume, stream, 6, start=12))
    read_back(array, volume, payloads)
    replacement = array.replace_drive(victim)
    assert not replacement.failed
    assert victim not in array.drives
    rebuilt = array.rebuild()
    assert rebuilt > 0
    array.drain()
    assert_fully_protected(array)
    array.datapath.drop_caches()
    read_back(array, volume, payloads)


def test_rebuild_is_idempotent_when_nothing_is_degraded(
    array, volume, stream
):
    write_records(array, volume, stream, 8)
    array.drain()
    assert array.rebuild() == 0


def test_replacement_drive_rejoins_allocation(array, volume, stream):
    write_records(array, volume, stream, 8)
    array.drain()
    victim = next(iter(array.tables.segments.scan())).value[0][0][0]
    array.fail_drive(victim)
    replacement = array.replace_drive(victim)
    array.rebuild()
    # Enough fresh data to open new segments: the replacement drive
    # must be back in rotation for placement.
    stream2 = stream
    for index in range(30):
        array.write(
            volume, (20 + index) * RECORD, unique_bytes(RECORD, stream2)
        )
    array.drain()
    placed = {
        drive_name
        for fact in array.tables.segments.scan()
        for drive_name, _au in fact.value[0]
    }
    assert replacement.name in placed


def test_chronically_corrupt_drive_auto_fails_and_rebuilds(
    array, volume, stream
):
    """The health monitor's suspect -> failed escalation ends in the
    same replace/rebuild flow as a pulled drive."""
    payloads = write_records(array, volume, stream, 8)
    array.drain()
    victim = next(iter(array.tables.segments.scan())).value[0][0][0]
    # Corruption across many distinct regions: rot, not one torn unit.
    for region in range(FAIL_THRESHOLD):
        array.health.note_corrupted(victim, region=region)
    assert array.drives[victim].failed
    assert array.health.auto_failed == [victim]
    rebuilt = array.service_health()
    assert rebuilt > 0
    assert array.service_health() == 0  # debt settled
    array.replace_drive(victim)
    array.drain()
    assert_fully_protected(array)
    array.datapath.drop_caches()
    read_back(array, volume, payloads)
