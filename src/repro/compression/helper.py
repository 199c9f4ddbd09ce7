"""One helper thread for a large I/O's zlib work.

Purity compresses every write inline on multi-core controllers
(Sections 3.1, 4.6). ``zlib.compress`` and ``zlib.decompress`` release
the GIL, so while the controller thread runs one cblock's zlib call a
second core can run another's. A write or a read whose zlib work covers
at least :data:`SPLIT_MIN_CBLOCKS` cblocks shares it with a helper
thread started for that one call (:class:`ZlibHelper`) and joined
before the call returns or raises: no thread outlives the I/O that
started it.

The helper runs ``zlib.compress(view, level)`` and
``zlib.decompress(payload)`` and nothing else: no counter, ``obs``,
sim clock, RNG or traced entry point. The controller thread still makes
every ``build_cblock`` / ``parse_cblock`` / ``ZlibCompressor`` call
itself, in the serial order with the serial arguments, handing each the
cblock's job: the codec returns the helper's answer if the helper took
the job, and runs the call inline if it did not. What is stored,
cached, counted and traced is therefore the same whether a helper ran
or not.
"""

import os
import threading
import zlib

from repro.compression.cblock import zlib_payload
from repro.compression.engine import ZlibCompressor

#: Fewest zlib cblocks one write or read must cover before a helper
#: thread shares them. Starting and joining the thread costs about
#: 100 us (2-vCPU Xeon): two 32 KiB inflates broke even (197 us inline,
#: 196 us shared), four gained (396 and 350 us).
SPLIT_MIN_CBLOCKS = 4


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def _worth_a_helper(cblocks):
    return cblocks >= SPLIT_MIN_CBLOCKS and _usable_cpus() >= 2


class ZlibJob:
    """One zlib call that whichever thread claims it first runs."""

    __slots__ = ("_call", "_args", "_result", "_error", "_claimed", "_done")

    def __init__(self, call, *args):
        self._call = call
        self._args = args
        self._result = None
        self._error = None
        self._claimed = threading.Lock()
        # Held until the helper has run the call; result() waits on it.
        self._done = threading.Lock()
        self._done.acquire()

    def claim(self):
        """Claim the call for the calling thread, which then runs it (or
        drops it) itself; False if the helper already has it."""
        if not self._claimed.acquire(blocking=False):
            return False
        self._args = None  # no view of an I/O buffer outlives the claim
        return True

    def run(self):
        """Helper side: run the call unless the controller thread
        claimed it first."""
        if not self._claimed.acquire(blocking=False):
            return
        try:
            self._result = self._call(*self._args)
        except Exception as error:
            # Re-raised by result(), on the controller thread, where the
            # serial call would have raised it.
            self._error = error
        finally:
            self._args = None
            self._done.release()

    def result(self):
        """The helper's answer, once it has one; raises what the call
        raised. Only for a job :meth:`claim` found taken."""
        with self._done:
            pass
        if self._error is not None:
            raise self._error
        return self._result


class ZlibHelper:
    """Context manager over one I/O's ``{cblock index: job}``.

    From ``__enter__`` a helper thread runs, in index order, each job at
    least ``lead`` cblocks ahead of the one the controller thread has
    :meth:`reach`-ed; the controller thread runs inline any job it
    reaches first, so neither thread waits on work the other has not
    started. ``__exit__`` claims every job not yet started and joins the
    thread. No jobs, no thread.
    """

    def __init__(self, jobs, lead):
        self._jobs = jobs
        self._lead = lead
        self._position = 0
        self._thread = None

    def __enter__(self):
        if self._jobs:
            self._thread = threading.Thread(
                target=self._run, name="zlib-helper", daemon=True
            )
            self._thread.start()
        return self

    def reach(self, index):
        """The controller thread is at cblock ``index``: its job or None."""
        self._position = index
        return self._jobs.get(index)

    def _run(self):
        for index, job in self._jobs.items():
            if index >= self._position + self._lead:
                job.run()

    def __exit__(self, *exc_info):
        for job in self._jobs.values():
            job.claim()
        if self._thread is not None:
            self._thread.join()
        return False


def compress_helper(chunks, compressor):
    """The helper for one write's ``split_write`` pairs.

    Every chunk is a job that compresses it whole, and the helper stays
    two chunks ahead: while the controller thread hashes, dedups and
    appends one chunk, it can compress the next one itself, and the
    helper compresses the ones after. Speculative: a job's answer is
    used only if inline dedup leaves its chunk one unique run, the exact
    bytes the serial path compresses. No jobs when the write is too
    small, the host offers one CPU, or ``compressor`` is not zlib.
    """
    jobs = {}
    if isinstance(compressor, ZlibCompressor) and _worth_a_helper(len(chunks)):
        jobs = {index: ZlibJob(zlib.compress, chunk, compressor.level)
                for index, (_offset, chunk) in enumerate(chunks)}
    return ZlibHelper(jobs, lead=2)


def inflate_helper(blobs):
    """The helper for one read's cblock ``blobs``, in fetch order.

    A read does little between inflates, so the two threads take turns:
    every other zlib-coded blob is a job. No jobs when there are too
    few zlib-coded blobs or the host offers one CPU.
    """
    jobs = {}
    if len(blobs) >= SPLIT_MIN_CBLOCKS:
        coded = [(index, payload)
                 for index, payload in enumerate(map(zlib_payload, blobs))
                 if payload is not None]
        if _worth_a_helper(len(coded)):
            jobs = {index: ZlibJob(zlib.decompress, payload)
                    for index, payload in coded[1::2]}
    return ZlibHelper(jobs, lead=1)
