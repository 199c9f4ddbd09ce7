"""Hedged reads: purity of the trigger, firing under stalls, silence
when healthy, and byte-correct results either way."""

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.core.health import STALL_SUSPECT_THRESHOLD, WINDOW_SECONDS
from repro.faults.injector import FaultInjector
from repro.faults.plan import DRIVE_FAIL, STALL_STORM, FaultPlan, FaultSpec
from repro.units import KIB, MIB

from tests.core.conftest import unique_bytes
from tests.degrade.conftest import device_reads, spy_on_hedges

READ_SIZE = 16 * KIB


def write_blocks(array, volume, stream, count=10):
    blocks = {}
    for block in range(count):
        payload = unique_bytes(READ_SIZE, stream)
        array.write(volume, block * READ_SIZE, payload)
        blocks[block * READ_SIZE] = payload
    array.drain()
    array.datapath.drop_caches()
    return blocks


def storm_drives(array, names=None, duration=0.05):
    """Arm a stall storm on ``names`` (default: every drive) via the
    real injector path."""
    plan = FaultPlan()
    for name in names if names is not None else sorted(array.drives):
        plan.add(FaultSpec(0, STALL_STORM, name, (duration,)))
    injector = FaultInjector(plan, clock=array.clock)
    injector.attach(array)
    injector.advance_to_op(0)
    return injector


def test_estimated_read_wait_is_pure(array, volume, stream):
    write_blocks(array, volume, stream, count=4)
    storm_drives(array)
    name = sorted(array.drives)[0]
    drive = array.drives[name]
    before = list(drive._writing_windows)
    first = drive.estimated_read_wait(0)
    second = drive.estimated_read_wait(0)
    assert first == second
    assert first > 0  # the storm is visible in the estimate
    assert list(drive._writing_windows) == before  # no cache pruning


def test_fault_free_run_never_hedges(array, volume, stream):
    blocks = write_blocks(array, volume, stream)
    for offset, payload in blocks.items():
        data, _latency = array.read(volume, offset, READ_SIZE)
        assert data == payload
    assert array.segreader.hedge.enabled
    assert array.segreader.hedge.fired == 0


def test_stall_storm_fires_hedges_and_returns_right_bytes(array, volume,
                                                         stream):
    blocks = write_blocks(array, volume, stream)
    storm_drives(array)
    for offset, payload in blocks.items():
        data, _latency = array.read(volume, offset, READ_SIZE)
        assert data == payload
    hedge = array.segreader.hedge
    assert hedge.fired > 0
    assert hedge.won + hedge.lost == hedge.fired
    assert hedge.wasted > 0  # losing arms are accounted, not hidden


def test_suspect_drive_triggers_hedge(array, volume, stream):
    write_blocks(array, volume, stream, count=4)
    hedge = array.segreader.hedge
    name = sorted(array.drives)[0]
    drive = array.drives[name]
    assert not hedge.should_hedge(drive, 0)
    for _strike in range(30):  # STALL_SUSPECT_THRESHOLD is 24
        array.health.note_stalled(name)
    assert array.health.is_suspect(name)
    assert hedge.should_hedge(drive, 0)


def test_disabled_policy_never_fires_but_still_ranks(array, volume, stream):
    config = ArrayConfig.small(hedge_reads=False)
    quiet = PurityArray.create(config)
    quiet.create_volume("vol0", 2 * MIB)
    blocks = write_blocks(quiet, "vol0", stream)
    storm_drives(quiet)
    name = sorted(quiet.drives)[0]
    drive = quiet.drives[name]
    hedge = quiet.segreader.hedge
    # would_wait stays live (it orders reconstruction candidates) ...
    assert hedge.would_wait(drive, 0)
    # ... but the policy itself never triggers a hedge.
    assert not hedge.should_hedge(drive, 0)
    for offset, payload in blocks.items():
        data, _latency = quiet.read("vol0", offset, READ_SIZE)
        assert data == payload
    assert hedge.fired == 0


def test_hedge_under_storm_beats_unhedged_tail(stream):
    """Same seed, same storm: hedging must cut the worst-case read."""

    def run(hedge_reads):
        config = ArrayConfig.small(seed=7, hedge_reads=hedge_reads)
        array = PurityArray.create(config)
        array.create_volume("vol0", 2 * MIB)
        from repro.sim.rand import RandomStream

        local = RandomStream(7).fork("hedge-tail")
        blocks = write_blocks(array, "vol0", local)
        storm_drives(array, sorted(array.drives)[:2], duration=10.0)
        latencies = []
        reads = []
        for offset in sorted(blocks):
            data, latency = array.read("vol0", offset, READ_SIZE)
            latencies.append(latency)
            reads.append(data)
        assert reads == [blocks[offset] for offset in sorted(blocks)]
        return max(latencies)

    assert run(True) < run(False)


def test_hedge_adopts_direct_read_when_reconstruction_cannot_help(
        array, volume, stream):
    """With two drives already gone, reconstruction of a stripe that
    lost shards is slower or impossible — the direct arm must win and
    the loss must be counted, never a wrong byte."""
    blocks = write_blocks(array, volume, stream)
    names = sorted(array.drives)
    plan = FaultPlan()
    plan.add(FaultSpec(0, DRIVE_FAIL, names[0]))
    plan.add(FaultSpec(0, DRIVE_FAIL, names[1]))
    for name in names[2:]:
        plan.add(FaultSpec(0, STALL_STORM, name, (0.05,)))
    injector = FaultInjector(plan, clock=array.clock)
    injector.attach(array)
    injector.advance_to_op(0)
    array.datapath.drop_caches()
    for offset, payload in blocks.items():
        data, _latency = array.read(volume, offset, READ_SIZE)
        assert data == payload
    hedge = array.segreader.hedge
    assert hedge.fired > 0


def test_lost_hedge_is_charged_the_reads_its_losing_arm_issued(
        array, volume, stream):
    """With two drives gone a reconstruction arm finds six survivors,
    reads them, and gives up: six wasted reads, not ``data_shards``."""
    blocks = write_blocks(array, volume, stream)
    names = sorted(array.drives)
    array.fail_drive(names[0])
    array.fail_drive(names[1])
    storm_drives(array, names[2:])
    array.datapath.drop_caches()
    outcomes = []
    spy_on_hedges(array, outcomes)
    for offset, payload in blocks.items():
        data, _latency = array.read(volume, offset, READ_SIZE)
        assert data == payload
    hedge = array.segreader.hedge
    assert hedge.won + hedge.lost == hedge.fired == len(outcomes)
    # No read was corrupted or retried, so a lost hedge issued its one
    # direct read plus whatever its reconstruction arm got through.
    for reads, won, wasted in outcomes:
        assert wasted == (1 if won else reads - 1)
    short_arms = [wasted for _r, won, wasted in outcomes if not won
                  and wasted < array.segreader.geometry.data_shards]
    assert short_arms  # some stripe had both dead drives in it


def test_storm_suspicion_lapses_and_reads_go_back_to_one_per_chunk(
        array, volume, stream):
    blocks = write_blocks(array, volume, stream)
    health = array.health
    hedge = array.segreader.hedge
    storm_drives(array, duration=0.05)
    for _round in range(STALL_SUSPECT_THRESHOLD):
        if health.suspects():
            break
        array.datapath.drop_caches()
        for offset in blocks:
            array.read(volume, offset, READ_SIZE, advance_clock=False)
    suspects = health.suspects()
    assert suspects
    # Past the storm but inside the window: still hedged.
    array.clock.advance(1.0)
    array.datapath.drop_caches()
    fired = hedge.fired
    for offset, payload in blocks.items():
        assert array.read(volume, offset, READ_SIZE)[0] == payload
    assert hedge.fired > fired
    assert health.suspects() == suspects
    # Past the window: the evidence has aged out, the shelf is trusted
    # again, and a read of a once-suspect drive is one device read.
    array.clock.advance(WINDOW_SECONDS + 1)
    assert health.suspects() == []
    array.datapath.drop_caches()
    fired = hedge.fired
    reconstructed = array.segreader.reconstructed_reads
    direct = array.segreader.direct_reads
    before = {name: array.drives[name].counters.reads for name in suspects}
    issued = device_reads([array])
    for offset, payload in blocks.items():
        assert array.read(volume, offset, READ_SIZE)[0] == payload
    assert hedge.fired == fired
    assert array.segreader.reconstructed_reads == reconstructed
    chunks = array.segreader.direct_reads - direct
    assert device_reads([array]) - issued == chunks
    assert any(
        array.drives[name].counters.reads > before[name] for name in suspects
    )
