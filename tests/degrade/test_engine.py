"""DegradeEngine wired through a real array: the fault → ladder-state →
client-visible-behavior matrix from DESIGN.md, executed."""

import pytest

from repro.degrade.engine import (
    NORMAL,
    NVRAM_DEGRADED,
    READ_ONLY,
    REDUCED_PARITY,
)
from repro.core.telemetry import degraded_mode_report
from repro.errors import ReadOnlyModeError
from repro.units import KIB

from tests.core.conftest import unique_bytes

BLOCK = 16 * KIB


def write_blocks(array, volume, stream, count=8):
    blocks = {}
    for block in range(count):
        payload = unique_bytes(BLOCK, stream)
        array.write(volume, block * BLOCK, payload)
        blocks[block * BLOCK] = payload
    array.drain()
    return blocks


def test_array_boots_normal(array):
    assert array.degrade.state == NORMAL
    assert not array.degrade.read_only
    assert array.degrade.report()["repair_debt"] == {}


def test_drive_failure_enters_reduced_parity_and_rebuild_exits(
        array, volume, stream):
    write_blocks(array, volume, stream)
    name = sorted(array.drives)[0]
    array.fail_drive(name)
    assert array.degrade.state == REDUCED_PARITY
    assert name in array.degrade.failed_drives

    # Writes continue at reduced width; the stripes are charged as debt.
    fresh = unique_bytes(BLOCK, stream)
    array.write(volume, 40 * BLOCK, fresh)
    array.drain()
    assert array.degrade.repair_debt()["segments"] > 0

    # Rebuild with the dead slot still empty re-protects the data but
    # cannot leave reduced-parity (the failure evidence is still live).
    assert array.rebuild() > 0
    assert array.degrade.state == REDUCED_PARITY

    # Replace the drive; a pass that finds nothing degraded settles it.
    array.replace_drive(name)
    while array.rebuild():
        pass
    assert array.degrade.state == NORMAL
    assert array.degrade.repair_debt() == {}
    assert array.degrade.failed_drives == frozenset()
    data, _latency = array.read(volume, 40 * BLOCK, BLOCK)
    assert data == fresh


def test_beyond_budget_failures_pin_read_only(array, volume, stream):
    blocks = write_blocks(array, volume, stream)
    names = sorted(array.drives)
    for name in names[:3]:  # parity budget is 2
        array.fail_drive(name)
    assert array.degrade.state == READ_ONLY

    with pytest.raises(ReadOnlyModeError) as excinfo:
        array.write(volume, 50 * BLOCK, unique_bytes(BLOCK, stream))
    assert "read-only" in str(excinfo.value)
    assert "parity budget" in str(excinfo.value)

    # Reads are still served: correct bytes where enough shards
    # survive, a *detected* error where they do not — never wrong bytes.
    array.datapath.drop_caches()
    from repro.errors import DataLossError, UncorrectableError

    served = 0
    for offset, payload in blocks.items():
        try:
            data, _latency = array.read(volume, offset, BLOCK)
        except (DataLossError, UncorrectableError):
            continue
        assert data == payload
        served += 1
    assert served > 0

    # The transition log walked every rung on the way up.
    states = [t.to_state for t in array.degrade.transitions]
    assert states == [NVRAM_DEGRADED, REDUCED_PARITY, READ_ONLY]


def test_loss_acknowledgement_reopens_writes(array, volume, stream):
    write_blocks(array, volume, stream, count=2)
    for name in sorted(array.drives)[:3]:
        array.fail_drive(name)
    assert array.degrade.read_only
    array.degrade.acknowledge_loss_repair("restored from replica")
    # Still reduced-parity (drives are down), but writes flow again.
    assert array.degrade.state == REDUCED_PARITY
    array.write(volume, 60 * BLOCK, unique_bytes(BLOCK, stream))
    array.drain()


def test_nvram_tear_forces_write_through_until_checkpoint(array, volume,
                                                          stream):
    array.degrade.note_nvram_tear(pending_records=3)
    assert array.degrade.state == NVRAM_DEGRADED
    assert array.degrade.write_through
    assert array.degrade.repair_debt() == {"nvram-replay": 3}

    # Every write in write-through mode drains straight to flash and
    # settles the replay debt (nothing is pending in NVRAM anymore).
    drains_before = array.degrade.write_through_drains
    array.write(volume, 0, unique_bytes(BLOCK, stream))
    assert array.degrade.write_through_drains == drains_before + 1
    assert array.degrade.repair_debt() == {}

    # A checkpoint is the repair: the ladder descends to normal.
    array.checkpoint()
    assert array.degrade.state == NORMAL
    assert not array.degrade.write_through


def test_ha_pair_reports_active_controller_ladder_state(config):
    from repro.core.ha import DualControllerArray

    pair = DualControllerArray(config)
    assert pair.degraded_mode == NORMAL
    pair.active.degrade.note_nvram_tear()
    assert pair.degraded_mode == NVRAM_DEGRADED


def test_degraded_mode_report_carries_all_degrade_sections(array, volume,
                                                           stream):
    write_blocks(array, volume, stream, count=2)
    array.fail_drive(sorted(array.drives)[0])
    report = degraded_mode_report(array)
    assert report["ladder"]["state"] == REDUCED_PARITY
    assert "repair_debt" in report
    assert report["hedge"]["enabled"] is True
    assert report["rebuild_governor"]["enabled"] is False
    for device in report["devices"].values():
        assert "stall_pressure" in device


@pytest.mark.parametrize("offset", [4 * KIB, 0])
def test_unmap_is_refused_on_the_read_only_rung(array, volume, stream,
                                                offset):
    """Inside an extent (4 KiB) or on its key (0): an unmap is a write."""
    payload = unique_bytes(BLOCK, stream)
    array.write(volume, 0, payload)
    array.drain()
    for name in sorted(array.drives)[:3]:  # parity budget is 2
        array.fail_drive(name)
    assert array.degrade.read_only
    with pytest.raises(ReadOnlyModeError):
        array.unmap(volume, offset, 4 * KIB)
    assert array.read(volume, 0, BLOCK)[0] == payload


@pytest.mark.parametrize("offset", [4 * KIB, 0])
def test_unmap_drains_on_the_write_through_rung(array, volume, stream,
                                                offset):
    payload = unique_bytes(BLOCK, stream)
    array.write(volume, 0, payload)
    array.drain()
    array.degrade.note_nvram_tear()
    drains_before = array.degrade.write_through_drains
    array.unmap(volume, offset, 4 * KIB)
    assert array.degrade.write_through_drains == drains_before + 1
    assert array.pipeline.wal.pending_count == 0
    expected = bytearray(payload)
    expected[offset:offset + 4 * KIB] = bytes(4 * KIB)
    array.datapath.drop_caches()
    assert array.read(volume, 0, BLOCK)[0] == bytes(expected)


def _degrade_gauges(array):
    """The published degrade gauges and counter, as an observer reads
    them (a metric never set reads 0)."""
    snapshot = array.obs.metrics.snapshot()
    gauges, counters = snapshot["gauges"], snapshot["counters"]
    return (gauges.get("degrade.repair_debt", 0),
            gauges.get("degrade.ladder_state", 0),
            counters.get("degrade.transitions", 0))


def _assert_gauges_track_the_engine(array):
    report = array.degrade.report()
    assert _degrade_gauges(array) == (
        len(array.degrade.degraded_segments),
        report["rung"],
        report["transitions"],
    )
    assert report["repair_debt"] == (
        {"segments": len(array.degrade.degraded_segments)}
        if array.degrade.degraded_segments else {}
    )


def test_gauges_track_a_drive_failure_through_its_rebuild(array, volume,
                                                          stream):
    write_blocks(array, volume, stream)
    name = sorted(array.drives)[0]
    array.fail_drive(name)
    _assert_gauges_track_the_engine(array)
    assert _degrade_gauges(array)[1:] == (2, 2)

    array.write(volume, 40 * BLOCK, unique_bytes(BLOCK, stream))
    _assert_gauges_track_the_engine(array)
    array.drain()
    _assert_gauges_track_the_engine(array)
    assert array.degrade.degraded_segments

    assert array.rebuild() > 0  # the slot is still empty
    _assert_gauges_track_the_engine(array)
    assert array.degrade.state == REDUCED_PARITY

    array.replace_drive(name)
    _assert_gauges_track_the_engine(array)
    while array.rebuild():
        _assert_gauges_track_the_engine(array)
    _assert_gauges_track_the_engine(array)
    assert _degrade_gauges(array) == (0, 0, 4)
    assert array.degrade.state == NORMAL


def test_replay_debt_after_a_torn_mirror_crash_settles_at_checkpoint(
        array, volume, stream):
    from repro.core.array import PurityArray

    array.drain()
    array.shelf.nvram.note_tear()
    for block in range(3):
        array.write(volume, block * BLOCK, unique_bytes(BLOCK, stream))
    shelf, boot, clock = array.crash()
    recovered, report = PurityArray.recover(array.config, shelf, boot, clock)
    assert report.raw_writes_replayed > 0
    assert recovered.degrade.state == NVRAM_DEGRADED
    assert recovered.degrade.write_through
    assert recovered.degrade.report()["repair_debt"] == {
        "nvram-replay": report.raw_writes_replayed
    }
    assert _degrade_gauges(recovered) == (report.raw_writes_replayed, 1, 1)

    recovered.checkpoint()
    assert recovered.degrade.report()["repair_debt"] == {}
    assert recovered.degrade.state == NORMAL
    assert _degrade_gauges(recovered) == (0, 0, 2)
