"""The drive-health state machine: healthy → suspect → failed."""

from repro.core.health import (
    FAIL_THRESHOLD,
    FAILED,
    HEALTHY,
    STALL_SUSPECT_THRESHOLD,
    SUSPECT,
    SUSPECT_THRESHOLD,
    WINDOW_SECONDS,
    DriveHealthMonitor,
)
from repro.sim.clock import SimClock
from repro.units import KIB, MIB

from tests.degrade.test_hedge import storm_drives


def monitor():
    failed = []
    mon = DriveHealthMonitor(SimClock(), on_auto_fail=failed.append)
    return mon, failed


def test_fresh_drive_is_healthy():
    mon, _failed = monitor()
    assert mon.state_of("d0") == HEALTHY
    assert not mon.is_suspect("d0")


def test_corruption_across_regions_escalates_to_suspect():
    mon, failed = monitor()
    for region in range(SUSPECT_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == SUSPECT
    assert mon.suspects() == ["d0"]
    assert not failed


def test_chronic_corruption_auto_fails_the_drive():
    mon, failed = monitor()
    for region in range(FAIL_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == FAILED
    assert failed == ["d0"]
    assert mon.auto_failed == ["d0"]


def test_rereading_one_damaged_region_scores_once():
    """A single torn unit is data damage, not a dying drive."""
    mon, failed = monitor()
    for _ in range(100):
        mon.note_corrupted("d0", region=7)
    assert mon.state_of("d0") == HEALTHY
    assert not failed
    # Counters still record every observation for telemetry.
    assert mon.health_of("d0").corrupted_reads == 100


def test_exhausted_retries_weigh_double():
    mon, _failed = monitor()
    mon.note_exhausted("d0", region=0)
    mon.note_exhausted("d0", region=1)
    assert mon.state_of("d0") == SUSPECT  # 2 events x weight 2 = 4


def test_stall_storms_suspect_but_never_fail():
    mon, failed = monitor()
    for _ in range(10 * STALL_SUSPECT_THRESHOLD):
        mon.note_stalled("d0")
    assert mon.state_of("d0") == SUSPECT
    assert not failed


def test_occasional_stalls_stay_healthy():
    """Flush interference stalls a few reads on a perfectly good drive."""
    mon, _failed = monitor()
    for _ in range(STALL_SUSPECT_THRESHOLD - 1):
        mon.note_stalled("d0")
    assert mon.state_of("d0") == HEALTHY


def test_events_age_out_of_the_window():
    mon, _failed = monitor()
    clock = mon.clock
    for region in range(3):
        mon.note_corrupted("d0", region=region)
    clock.advance(WINDOW_SECONDS + 1)
    # The old events fell off the horizon: three fresh regions are not
    # enough to reach the threshold when combined with nothing.
    for region in range(10, 13):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == HEALTHY


def test_note_failed_is_terminal_for_scoring():
    mon, failed = monitor()
    mon.note_failed("d0")
    assert mon.state_of("d0") == FAILED
    for region in range(50):
        mon.note_corrupted("d0", region=region)
    assert failed == []  # already failed: no auto-fail callback


def test_replacement_drive_starts_clean():
    mon, _failed = monitor()
    for region in range(FAIL_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == FAILED
    mon.reset("d0")
    assert mon.state_of("d0") == HEALTHY
    assert mon.health_of("d0").corrupted_reads == 0


def test_report_exposes_per_drive_counters():
    mon, _failed = monitor()
    mon.note_corrupted("d0", region=0)
    mon.note_stalled("d1")
    report = mon.report()
    assert report["d0"]["corrupted_reads"] == 1
    assert report["d0"]["state"] == HEALTHY
    assert report["d1"]["stalled_reads"] == 1


def test_unregioned_events_always_score():
    """Callers without region context keep the old accumulate-all path."""
    mon, failed = monitor()
    for _ in range(FAIL_THRESHOLD):
        mon.note_corrupted("d0")
    assert mon.state_of("d0") == FAILED
    assert failed == ["d0"]


# ----------------------------------------------------------------------
# Suspicion is a statement about the window, not a latch.


def test_stall_suspicion_lapses_after_a_quiet_window():
    mon, _failed = monitor()
    for _ in range(STALL_SUSPECT_THRESHOLD):
        mon.note_stalled("d0")
    assert mon.is_suspect("d0")
    mon.clock.advance(WINDOW_SECONDS)
    assert mon.is_suspect("d0")  # the last stall is still on the horizon
    mon.clock.advance(1)
    assert mon.state_of("d0") == HEALTHY
    assert not mon.is_suspect("d0")
    assert mon.suspects() == []
    assert mon.report()["d0"]["state"] == HEALTHY
    assert mon.stall_pressure("d0") == 0
    assert mon.health_of("d0").suspect_since is None
    # Lifetime counters are history, not state.
    assert mon.health_of("d0").stalled_reads == STALL_SUSPECT_THRESHOLD


def test_stall_suspicion_holds_while_the_storm_continues():
    """The ledger keeps recording while suspect: a lapse must not be
    blind to stalls that arrived after the drive was first suspected."""
    mon, failed = monitor()
    threshold = STALL_SUSPECT_THRESHOLD
    for _ in range(threshold):
        mon.note_stalled("d0")
    # Half a threshold every third of a window: never fewer than a
    # threshold's worth inside any window.
    for _step in range(12):
        mon.clock.advance(WINDOW_SECONDS / 3)
        for _ in range(threshold // 2):
            mon.note_stalled("d0")
        assert mon.is_suspect("d0")
        assert mon.stall_pressure("d0") >= threshold
    assert not failed
    mon.clock.advance(WINDOW_SECONDS + 1)
    assert mon.state_of("d0") == HEALTHY


def test_a_trickle_of_stalls_does_not_hold_suspicion_up():
    mon, _failed = monitor()
    for _ in range(STALL_SUSPECT_THRESHOLD):
        mon.note_stalled("d0")
    mon.clock.advance(WINDOW_SECONDS + 1)
    mon.note_stalled("d0")  # one stall in a fresh window is noise
    assert mon.state_of("d0") == HEALTHY
    assert mon.stall_pressure("d0") == 1


def test_integrity_suspicion_lapses_and_needs_a_fresh_threshold():
    mon, failed = monitor()
    for region in range(SUSPECT_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == SUSPECT
    mon.clock.advance(WINDOW_SECONDS + 1)
    assert mon.state_of("d0") == HEALTHY
    for region in range(100, 100 + SUSPECT_THRESHOLD - 1):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == HEALTHY
    mon.note_corrupted("d0", region=199)
    assert mon.state_of("d0") == SUSPECT
    assert not failed


def test_suspicion_lapses_only_when_both_ledgers_have_emptied():
    mon, _failed = monitor()
    for region in range(SUSPECT_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    mon.clock.advance(200)
    for _ in range(STALL_SUSPECT_THRESHOLD):
        mon.note_stalled("d0")
    mon.clock.advance(WINDOW_SECONDS - 199)  # integrity aged out
    assert mon.state_of("d0") == SUSPECT  # the stalls have not
    mon.clock.advance(200)
    assert mon.state_of("d0") == HEALTHY


def test_failed_never_lapses():
    mon, failed = monitor()
    for region in range(FAIL_THRESHOLD):
        mon.note_corrupted("d0", region=region)
    mon.note_failed("d1")
    mon.clock.advance(10 * WINDOW_SECONDS)
    assert mon.state_of("d0") == FAILED
    assert mon.state_of("d1") == FAILED
    assert failed == ["d0"]
    assert mon.suspects() == []


def test_suspect_to_failed_needs_the_same_score_as_ever():
    """Stall-suspect or integrity-suspect, FAILED takes ``fail_threshold``
    weighted integrity events inside one window — and stalls add none."""
    mon, failed = monitor()
    for _ in range(10 * STALL_SUSPECT_THRESHOLD):
        mon.note_stalled("d0")
    for region in range(FAIL_THRESHOLD - 1):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == SUSPECT
    assert not failed
    mon.note_corrupted("d0", region=FAIL_THRESHOLD)
    assert mon.state_of("d0") == FAILED
    assert failed == ["d0"]


def test_a_lapsed_drive_is_not_failed_by_old_history():
    mon, failed = monitor()
    for region in range(FAIL_THRESHOLD - 1):
        mon.note_corrupted("d0", region=region)
    assert mon.state_of("d0") == SUSPECT
    mon.clock.advance(WINDOW_SECONDS + 1)
    mon.note_corrupted("d0", region=999)
    assert mon.state_of("d0") == HEALTHY
    assert not failed


# ----------------------------------------------------------------------
# Evidence classes: which stalls the segment reader reports.


def test_only_stalls_the_array_did_not_schedule_are_evidence(array):
    name = sorted(array.drives)[0]
    drive = array.drives[name]
    reader, health = array.segreader, array.health

    # 1. Behind the array's own program: stalled, counted by the
    # device, not evidence.
    drive.write(0, b"x" * 64 * KIB)
    assert drive.busy_writing()
    result = reader._read_with_retry(drive, 4 * MIB, 4 * KIB)
    assert result.stalled
    assert result.program_stall and not result.unscheduled_stall
    assert drive.counters.stalled_reads == 1
    assert health.health_of(name).stalled_reads == 0
    assert health.stall_pressure(name) == 0

    # 2. Stalled by the fault model on an idle drive: evidence.
    array.clock.advance(1.0)
    assert not drive.busy_writing()
    storm_drives(array, [name], duration=10.0)
    result = reader._read_with_retry(drive, 4 * MIB, 4 * KIB)
    assert result.stalled
    assert result.unscheduled_stall and not result.program_stall
    assert drive.counters.stalled_reads == 2
    assert health.health_of(name).stalled_reads == 1

    # 3. Both at once: still evidence.
    drive.write(0, b"x" * 64 * KIB)
    result = reader._read_with_retry(drive, 4 * MIB, 4 * KIB)
    assert result.program_stall and result.unscheduled_stall
    assert drive.counters.stalled_reads == 3
    assert health.health_of(name).stalled_reads == 2
    assert health.stall_pressure(name) == 2
