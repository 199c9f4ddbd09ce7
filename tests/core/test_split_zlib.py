"""The zlib helper thread: same bytes, same calls, no job left behind.

A write or a read whose zlib work covers ``SPLIT_MIN_CBLOCKS`` cblocks
or more runs some cblocks' ``zlib.compress`` / ``zlib.decompress`` on
the process's one resident helper thread, which is done with that I/O's
jobs before the I/O returns (``repro.compression.helper``). Nothing
observable may depend on whether the helper ran: every test here plays
the same corpus with the threshold patched to "never" and to "always"
and compares what the array stored, mapped, cached, counted and
returned.
"""

import os
import sys
import threading
import time
import zlib

import pytest

from repro.compression import helper
from repro.compression.cblock import build_cblock, parse_cblock, unpack_cblock
from repro.compression.engine import ZlibCompressor
from repro.core import datapath as datapath_module
from repro.core import tables as T
from repro.core.array import PurityArray
from repro.errors import EncodingError
from repro.sim.rand import RandomStream
from repro.units import KIB, MAX_CBLOCK, SECTOR

from tests.conftest import make_engine

VOLUME = 4096 * KIB


@pytest.fixture
def split(monkeypatch):
    """``split(True)`` lets a helper share the zlib work of any I/O of
    two or more cblocks (on a host reported to have two CPUs);
    ``split(False)`` never does. Returns the list of thread idents of
    the zlib calls the helper ran."""
    ran = []

    class Counting:
        @staticmethod
        def compress(data, level):
            ran.append(threading.get_ident())
            return zlib.compress(data, level)

        @staticmethod
        def decompress(payload):
            ran.append(threading.get_ident())
            return zlib.decompress(payload)

    monkeypatch.setattr(helper, "zlib", Counting)

    def choose(on):
        monkeypatch.setattr(helper, "SPLIT_MIN_CBLOCKS", 2 if on else 10 ** 9)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        return ran

    return choose


def _compressible(stream, length):
    """Half random, half zeroes per sector: zlib roughly halves it."""
    out = bytearray()
    while len(out) < length:
        out += stream.randbytes(SECTOR // 2) + bytes(SECTOR // 2)
    return bytes(out[:length])


def _play(array):
    """The corpus: 3-, 4- and 20-cblock writes, whole and partial
    duplicates (dedup splits chunks, and drops whole ones), a short
    tail chunk, cached and uncached reads, then an undrained write that
    recovery replays. Returns every observation, in order."""
    stream = RandomStream(31).fork("split-corpus")
    seen = []
    appended = []
    append_data = array.segwriter.append_data

    def spy(blob):
        appended.append(bytes(blob))
        return append_data(blob)

    array.segwriter.append_data = spy
    base = _compressible(stream, 4 * MAX_CBLOCK)
    three = stream.randbytes(3 * MAX_CBLOCK)  # incompressible: stored raw
    # 20 cblocks: fresh data, a copy of one ``base`` chunk straddling
    # two chunks (each split by dedup), then a whole-chunk copy of one
    # (a chunk dedup removes entirely).
    twenty = bytearray(_compressible(stream, 20 * MAX_CBLOCK))
    twenty[5 * MAX_CBLOCK + 3 * KIB : 6 * MAX_CBLOCK + 3 * KIB] = \
        base[MAX_CBLOCK : 2 * MAX_CBLOCK]
    twenty[9 * MAX_CBLOCK : 10 * MAX_CBLOCK] = base[2 * MAX_CBLOCK : 3 * MAX_CBLOCK]
    twenty = bytes(twenty)
    ragged = _compressible(stream, 3 * MAX_CBLOCK + 5 * SECTOR)
    writes = [(0, base), (256 * KIB, three), (512 * KIB, twenty),
              (1536 * KIB, ragged), (32 * KIB, base[: 2 * MAX_CBLOCK]),
              (600 * KIB, base)]
    for offset, data in writes:
        array.write("v", offset, data)
        seen.append(("read-warm", array.read("v", offset, len(data))[0]))
    array.drain()
    for offset, length in ((0, 4 * MAX_CBLOCK), (512 * KIB, 20 * MAX_CBLOCK),
                           (500 * KIB, 8 * MAX_CBLOCK), (1536 * KIB, 4 * KIB)):
        array.datapath.drop_caches()
        seen.append(("read-cold", array.read("v", offset, length)[0]))
        seen.append(("cache-cold", list(array.datapath._cblock_cache._entries)))
        seen.append(("read-again", array.read("v", offset, length)[0]))
    datapath = array.datapath
    seen.append(("cache", list(datapath._cblock_cache._entries)))
    tail = _compressible(stream, 20 * MAX_CBLOCK)
    array.write("v", 2048 * KIB, tail)
    seen.append(("blobs", appended))
    seen.append(("map", [(f.key, f.value) for f in datapath.visible_extents()]))
    seen.append(("stats", datapath.compression_stats))
    seen.append(("counters", (datapath.logical_bytes_written,
                              datapath.dedup_bytes_saved)))
    seen.append(("own-counters", _own_counters(array)))
    recovered, _report = PurityArray.recover(array.config, *array.crash())
    recovered.datapath.drop_caches()
    seen.append(("recovered", recovered.read("v", 0, 3 * 1024 * KIB)[0]))
    seen.append(("recovered-map", [(f.key, f.value) for f in
                                   recovered.datapath.visible_extents()]))
    seen.append(("recovered-stats", recovered.datapath.compression_stats))
    seen.append(("recovered-cache",
                 list(recovered.datapath._cblock_cache._entries)))
    seen.append(("recovered-counters", _own_counters(recovered)))
    return seen


def _own_counters(array):
    """The datapath's and segment reader's own event counters."""
    datapath, reader = array.datapath, array.segreader
    return (datapath._cblock_cache.counters(), datapath.tails_repointed,
            datapath.tail_bytes_repointed, reader.direct_reads,
            reader.reconstructed_reads, reader.retry_report())


def _observe(on, split):
    ran = split(on)
    seen = _play(make_engine(seed=3, volume="v", size=VOLUME))
    return seen, len(ran)


def test_helper_changes_no_byte_map_cache_or_counter(split):
    serial, serial_jobs = _observe(False, split)
    helped, helper_jobs = _observe(True, split)
    assert serial_jobs == 0
    assert helper_jobs > 20
    assert threading.get_ident() not in split(True)
    assert [name for name, _ in helped] == [name for name, _ in serial]
    for (name, expected), (_name, got) in zip(serial, helped):
        assert got == expected, name


def test_only_the_controller_thread_calls_traced_entry_points(split,
                                                              monkeypatch):
    """What ``benchmarks/perf/trace.py`` wraps runs on one thread, with
    the serial run's calls and sizes, in the serial order."""
    calls = []

    def recorder(name, function, size):
        def recorded(*args):
            result = function(*args)
            calls.append((threading.get_ident(), name, size(args, result)))
            return result
        return recorded

    def len_arg(index):
        return lambda args, result: len(args[index])

    monkeypatch.setattr(ZlibCompressor, "compress", recorder(
        "compress", ZlibCompressor.compress, len_arg(1)))
    monkeypatch.setattr(ZlibCompressor, "decompress", recorder(
        "decompress", ZlibCompressor.decompress,
        lambda args, result: len(result)))
    monkeypatch.setattr(datapath_module, "build_cblock", recorder(
        "build_cblock", datapath_module.build_cblock, len_arg(0)))
    monkeypatch.setattr(datapath_module, "parse_cblock", recorder(
        "parse_cblock", datapath_module.parse_cblock, len_arg(0)))
    _observe(False, split)
    serial = list(calls)
    calls.clear()
    _seen, jobs = _observe(True, split)
    assert jobs > 0
    main = threading.get_ident()
    assert {ident for ident, _name, _size in calls} == {main}
    assert calls == serial


def _helper_threads():
    return [thread for thread in threading.enumerate()
            if thread.name == "zlib-helper"]


def _settle():
    """Return once the helper has taken every task queued before."""
    taken = threading.Event()
    helper._helper_queue().put(taken.set)
    assert taken.wait(timeout=10)


def test_split_ios_hold_under_a_short_switch_interval(split):
    """With a thread switch forced every microsecond, every read still
    returns what was written and no thread but the one helper starts."""
    ran = split(True)
    array = make_engine(seed=7, volume="v", size=VOLUME)
    stream = RandomStream(35).fork("switches")
    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(12):
            offset = round_ % 4 * 8 * MAX_CBLOCK
            data = _compressible(stream, 8 * MAX_CBLOCK)
            array.write("v", offset, data)
            array.datapath.drop_caches()
            assert array.read("v", offset, len(data))[0] == data
    finally:
        sys.setswitchinterval(interval)
    assert len(_helper_threads()) == 1
    assert set(threading.enumerate()) - before <= set(_helper_threads())
    assert set(ran) == {_helper_threads()[0].ident}


def _write_read(array, cblocks, stream):
    data = _compressible(stream, cblocks * MAX_CBLOCK)
    array.write("v", 0, data)
    array.drain()
    array.datapath.drop_caches()
    assert array.read("v", 0, len(data))[0] == data


def test_one_helper_thread_serves_every_array_and_io(split):
    ran = split(True)
    stream = RandomStream(36).fork("resident")
    before = set(threading.enumerate())
    for seed in range(3):
        array = make_engine(seed=10 + seed, volume="v", size=VOLUME)
        for cblocks in (2, 5, 9):
            _write_read(array, cblocks, stream)
            assert len(_helper_threads()) == 1
    assert set(threading.enumerate()) - before <= set(_helper_threads())
    assert set(ran) == {_helper_threads()[0].ident}


class Crash(Exception):
    pass


class Armed:
    def hit(self, name, **context):
        if name == "segwriter.pre-flush":
            raise Crash(name)


def test_no_job_runs_after_its_io_returns_or_raises(split, monkeypatch):
    """Every helper zlib call starts and ends inside the write or read
    that made it, also when that I/O raises part-way: at a crashpoint
    mid-write, or at a failed inflate mid-read."""
    ran = split(True)
    counting = helper.zlib
    inside = [False]
    late = []

    def watched(name):
        def call(*args):
            if not inside[0]:
                late.append(name)
            time.sleep(0.001)  # hold the job long enough to outlive a bad I/O
            result = getattr(counting, name)(*args)
            if not inside[0]:
                late.append(name)
            return result
        return staticmethod(call)

    class Watched:
        compress = watched("compress")
        decompress = watched("decompress")

    monkeypatch.setattr(helper, "zlib", Watched)

    def io(call, *args):
        inside[0] = True
        try:
            return call(*args)
        finally:
            inside[0] = False

    array = make_engine(seed=4, volume="v", size=VOLUME)
    stream = RandomStream(32).fork("lifetimes")
    for round_ in range(4):
        data = _compressible(stream, 12 * MAX_CBLOCK)
        io(array.write, "v", round_ * len(data), data)
        array.drain()
        array.datapath.drop_caches()
        assert io(array.read, "v", round_ * len(data), len(data))[0] == data
    parse, parsed = datapath_module.parse_cblock, []

    def failing(blob, job=None, header=None):
        parsed.append(blob)
        if len(parsed) == 3:
            raise EncodingError("injected")
        return parse(blob, job, header)

    monkeypatch.setattr(datapath_module, "parse_cblock", failing)
    array.datapath.drop_caches()
    with pytest.raises(EncodingError, match="injected"):
        io(array.read, "v", 0, 12 * MAX_CBLOCK)
    monkeypatch.setattr(datapath_module, "parse_cblock", parse)
    array.segwriter.crashpoints = Armed()
    with pytest.raises(Crash):
        io(array.write, "v", 1024 * KIB, _compressible(stream, 16 * MAX_CBLOCK))
    _settle()
    assert ran
    assert late == []
    assert len(_helper_threads()) == 1


def test_the_callers_buffer_can_be_resized_right_after_write(split):
    """No view of a caller's write buffer outlives ``write()``: a
    bytearray with a live export raises BufferError on resize."""
    ran = split(True)
    array = make_engine(seed=4, volume="v", size=VOLUME)
    stream = RandomStream(37).fork("resize")
    for cblocks in (4, 16):
        caller = bytearray(_compressible(stream, cblocks * MAX_CBLOCK))
        expected = bytes(caller)
        array.write("v", 0, caller)
        caller.extend(b"\0" * SECTOR)
        del caller[:]
        array.drain()
        array.datapath.drop_caches()
        assert array.read("v", 0, len(expected))[0] == expected
    assert ran


def test_a_helper_inflate_error_is_an_encoding_error():
    """The helper's ``zlib.error`` re-raises on this thread, from
    ``parse_cblock``, as the serial path's EncodingError."""
    data = b"database page " * 300
    blob = bytearray(build_cblock(data, ZlibCompressor())[0])
    middle = len(blob) - len(zlib.compress(data, 1)) // 2
    blob[middle : middle + 2] = bytes(b ^ 0xFF for b in blob[middle : middle + 2])
    job = helper.ZlibJob(zlib.decompress, unpack_cblock(blob)[2])
    worker = threading.Thread(target=job.run)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    with pytest.raises(EncodingError, match="corrupt cblock payload"):
        parse_cblock(bytes(blob), job)


@pytest.mark.parametrize("chunk", [2, 3])
def test_a_corrupt_payload_is_an_encoding_error(split, monkeypatch, chunk):
    """One damaged cblock in a 6-cblock read raises EncodingError. The
    two chunks sit on either side of the middle of the fetch order,
    where the two threads inflating from its ends meet."""
    split(True)
    array = make_engine(seed=5, volume="v", size=VOLUME)
    stream = RandomStream(33).fork("corrupt")
    array.write("v", 0, _compressible(stream, 6 * MAX_CBLOCK))
    array.drain()
    array.datapath.drop_caches()
    medium = array.volumes.anchor_medium("v")
    victim_segment, victim_offset, victim_stored = T.extent_location(
        array.datapath.tables.address_map.get(
            (medium, chunk * MAX_CBLOCK)).value)
    read_run = array.datapath._read_run

    def damaged(segment_id, start, end):
        blob, latency = read_run(segment_id, start, end)
        if segment_id != victim_segment or not start <= victim_offset < end:
            return blob, latency
        blob = bytearray(blob)
        middle = victim_offset - start + victim_stored // 2
        blob[middle : middle + 2] = bytes(b ^ 0xFF for b in blob[middle : middle + 2])
        return bytes(blob), latency

    monkeypatch.setattr(array.datapath, "_read_run", damaged)
    threads = threading.active_count()
    with pytest.raises(EncodingError, match="corrupt cblock payload"):
        array.read("v", 0, 6 * MAX_CBLOCK)
    assert threading.active_count() == threads


def test_small_io_and_one_cpu_submit_no_job(monkeypatch):
    jobs, submitted = [], []
    job_class, queue_of = helper.ZlibJob, helper._helper_queue

    def counted_job(*args):
        jobs.append(args[0])
        return job_class(*args)

    def counted_queue():
        submitted.append(threading.get_ident())
        return queue_of()

    monkeypatch.setattr(helper, "ZlibJob", counted_job)
    monkeypatch.setattr(helper, "_helper_queue", counted_queue)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    stream = RandomStream(34).fork("selection")
    array = make_engine(seed=6, volume="v", size=VOLUME)
    _write_read(array, helper.SPLIT_MIN_CBLOCKS - 1, stream)
    assert jobs == submitted == []
    _write_read(array, helper.SPLIT_MIN_CBLOCKS, stream)
    assert len(submitted) == 2
    assert len(jobs) == 2 * helper.SPLIT_MIN_CBLOCKS  # every chunk, every inflate
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    jobs.clear()
    submitted.clear()
    _write_read(array, 20, stream)
    assert jobs == submitted == []


def test_a_changed_pid_starts_a_new_worker(split, monkeypatch):
    """A forked child (another pid) cannot use its parent's thread: its
    first large I/O starts a worker of its own, and later ones reuse it."""
    ran = split(True)
    stream = RandomStream(38).fork("fork")
    array = make_engine(seed=8, volume="v", size=VOLUME)
    _write_read(array, 6, stream)
    parent = _helper_threads()
    assert len(parent) == 1
    monkeypatch.setattr(helper, "_resident", helper._resident)
    pid = os.getpid()
    monkeypatch.setattr(os, "getpid", lambda: pid + 1)
    ran.clear()
    for _ in range(2):
        _write_read(array, 6, stream)
    child = [thread for thread in _helper_threads() if thread not in parent]
    assert len(child) == 1
    assert set(ran) == {child[0].ident}
    # A real fork leaves no parent thread in the child; stop the
    # stand-in child's quietly (it exits by raising SystemExit).
    monkeypatch.setattr(threading, "excepthook", lambda args: None)
    helper._resident[1].put(sys.exit)
    child[0].join(timeout=10)
    assert not child[0].is_alive()
