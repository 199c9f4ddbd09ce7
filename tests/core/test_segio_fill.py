"""Watermark drains leave segios full.

An NVRAM-watermark drain seals the memtables and writes their log
records, but the open segio flushes only when it fills (or at the next
forced flush); that flush trims NVRAM through the sealed records. These
tests pin the fill, the crash window between a seal and its flush, the
checkpoint's flush of a pending seal, the NVRAM ceiling, and the
explicit drain that still flushes and trims at once.
"""

import math

import pytest

from repro.core.array import PurityArray
from repro.core.commit import CommitPipeline, NVRAM_FORCE_WATERMARK
from repro.errors import InjectedCrashError
from repro.faults import plan as P
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.layout.segwriter import SegmentWriter
from repro.sim.rand import RandomStream
from repro.units import KIB, MIB
from repro.workloads.datagen import DataGenerator

from tests.conftest import make_engine

VOLUME_SIZE = 4 * MIB


class _Tape:
    """Profile-shaped writes of 4-32 KiB at random 4 KiB-aligned offsets,
    mirrored in a model of the volume."""

    def __init__(self, array, profile, seed):
        self.array = array
        self.stream = RandomStream(seed)
        self.data = DataGenerator(profile, self.stream.fork("data"))
        self.model = bytearray(VOLUME_SIZE)
        self.in_flight = None

    def write(self):
        nbytes = self.stream.choice([4, 8, 16, 32]) * KIB
        offset = self.stream.randint(0, (VOLUME_SIZE - nbytes) // (4 * KIB))
        offset *= 4 * KIB
        payload = self.data.buffer(nbytes)
        self.in_flight = (offset, payload)
        self.array.write("v", offset, payload)
        self.in_flight = None
        self.model[offset:offset + nbytes] = payload

    def until_watermark_seal(self, limit=400):
        drains = self.array.pipeline.drains
        for _ in range(limit):
            self.write()
            if self.array.pipeline.drains > drains:
                return
        raise AssertionError("no watermark seal in %d writes" % limit)


def _array(seed):
    return make_engine(seed=seed, volume="v", size=VOLUME_SIZE)


def _recover(array):
    return PurityArray.recover(array.config, *array.crash())


def _assert_reads_back(array, tape):
    """Every acknowledged byte is there; a write the crash interrupted
    reads back whole or not at all."""
    array.datapath.drop_caches()
    data, _latency = array.read("v", 0, VOLUME_SIZE)
    accepted = [bytes(tape.model)]
    if tape.in_flight is not None:
        offset, payload = tape.in_flight
        written = bytearray(tape.model)
        written[offset:offset + len(payload)] = payload
        accepted.append(bytes(written))
    assert data in accepted


def test_watermark_drains_flush_only_full_segios(monkeypatch):
    """Below the NVRAM ceiling no flush pads a segio: every segio
    leaves because the next blob or log record did not fit."""
    array = _array(seed=5)
    nvram = array.shelf.nvram
    ceiling = NVRAM_FORCE_WATERMARK * nvram.capacity_bytes
    inside = {"append": 0, "drain": 0}
    forced = []  # NVRAM fill at each flushing drain's entry
    padded = []  # free bytes of each flush outside both paths

    flush = SegmentWriter.flush

    def watched_flush(self):
        segio = self.current_segio
        if (segio is not None and not segio.finalized and not segio.is_empty
                and not inside["append"] and not inside["drain"]):
            padded.append(segio.free_bytes)
        return flush(self)

    def counted(method, key):
        def wrapper(self, *args, **kwargs):
            inside[key] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                inside[key] -= 1
        return wrapper

    drain = CommitPipeline.drain

    def watched_drain(self, flush=True):
        if not flush:  # the watermark tempo: it must not flush
            return drain(self, flush)
        forced.append(nvram.bytes_used)
        return counted(drain, "drain")(self)

    monkeypatch.setattr(SegmentWriter, "flush", watched_flush)
    for name in ("append_data", "append_log_record"):
        monkeypatch.setattr(SegmentWriter, name,
                            counted(getattr(SegmentWriter, name), "append"))
    monkeypatch.setattr(CommitPipeline, "drain", watched_drain)

    tape = _Tape(array, "rdbms", seed=5)
    for _ in range(600):
        tape.write()
    segwriter = array.segwriter
    assert array.pipeline.drains > 0  # the watermark fired
    assert all(used > ceiling for used in forced)
    assert padded == []
    payload = segwriter.data_bytes_written + segwriter.log_bytes_written
    per_segio = array.config.segment_geometry.payload_per_segio
    assert segwriter.segios_flushed <= (
        math.ceil(payload / per_segio) + len(forced))
    _assert_reads_back(array, tape)


@pytest.mark.parametrize("crashpoint", [
    "segwriter.pre-flush",
    "segwriter.mid-flush",
    "segwriter.post-flush",
    "nvram.post-append",
])
def test_crash_between_a_seal_and_its_flush_loses_nothing(crashpoint):
    """NVRAM keeps the sealed records until their segio is on flash,
    so a crash inside that window replays them."""
    array = _array(seed=7)
    tape = _Tape(array, "rdbms", seed=7)
    tape.until_watermark_seal()
    plan = FaultPlan()
    plan.add(FaultSpec(0, P.CRASH, crashpoint))
    FaultInjector(plan).attach(array).advance_to_op(0)
    pending_at_crash = []
    with pytest.raises(InjectedCrashError):
        for _ in range(200):
            pending_at_crash.append(array.pipeline.trim_pending)
            tape.write()
    recovered, report = _recover(array)
    assert report.raw_writes_replayed > 0
    _assert_reads_back(recovered, tape)
    # The crash came inside the window: the seal's trim still pending.
    assert None not in pending_at_crash


def test_checkpoint_flushes_a_pending_seal_first():
    """No boot pointer may name a log record that exists only in the
    open segio's RAM."""
    array = _array(seed=9)
    tape = _Tape(array, "rdbms", seed=9)
    tape.until_watermark_seal()
    assert array.pipeline.trim_pending is not None
    flushed = array.segwriter.segios_flushed
    array.pipeline.checkpoint()
    checkpoint, _latency = array.boot_region.read_checkpoint()
    chunks = sum(len(pointer) for _name, pointer in
                 checkpoint["patch_pointers"])
    recovered, report = _recover(array)
    assert chunks and report.log_records_read >= chunks
    _assert_reads_back(recovered, tape)
    assert array.pipeline.trim_pending is None
    assert array.segwriter.segios_flushed == flushed + 1


def test_nvram_never_fills_on_a_dedup_heavy_tape():
    """``vdi`` data reduces far more than NVRAM's raw records, so
    NVRAM outruns the segio; the ceiling's forced drain bounds it."""
    array = _array(seed=11)
    nvram = array.shelf.nvram
    peak = {"used": 0, "record": 0}
    append = nvram.append

    def watched_append(payload):
        result = append(payload)
        peak["used"] = max(peak["used"], nvram.bytes_used)
        peak["record"] = max(peak["record"], len(payload))
        return result

    nvram.append = watched_append
    tape = _Tape(array, "vdi", seed=11)
    for _ in range(3000):
        tape.write()
    ceiling = NVRAM_FORCE_WATERMARK * nvram.capacity_bytes
    assert peak["used"] <= min(nvram.capacity_bytes,
                               ceiling + peak["record"])
    _assert_reads_back(array, tape)


def test_a_large_record_flushes_a_pending_seal_to_fit():
    """A 256 KiB write of duplicate pages stores almost nothing, so the
    seal's segio stays open while NVRAM fills; a record that does not
    fit flushes that segio, and the trim makes room."""
    array = _array(seed=15)
    page = b"dup-page" * (256 * KIB // 8)
    for index in range(12):
        array.write("v", index * 256 * KIB, page)
    assert array.pipeline.drains > 0
    array.datapath.drop_caches()
    assert array.read("v", 0, 12 * 256 * KIB)[0] == page * 12


def test_explicit_drain_still_flushes_and_trims():
    """``drain()`` keeps its meaning: with a seal pending it flushes
    the open segio and trims NVRAM to empty."""
    array = _array(seed=13)
    tape = _Tape(array, "rdbms", seed=13)
    tape.until_watermark_seal()
    assert array.pipeline.trim_pending is not None
    opened = array.segwriter.segments_opened
    array.drain()
    # No segment opened inside the drain, so no SEGMENTS row was
    # committed after the drain sealed.
    assert array.segwriter.segments_opened == opened
    assert array.pipeline.trim_pending is None
    assert array.shelf.nvram.bytes_used == 0
    segio = array.segwriter.current_segio
    assert segio is None or segio.finalized
    recovered, report = _recover(array)
    assert report.raw_writes_replayed == 0
    _assert_reads_back(recovered, tape)
