"""Buffer pools: recycled scratch buffers for the flush and read paths.

Every ``OpenSegio`` used to allocate a fresh multi-hundred-KiB payload
bytearray, and every ``DataPath.read`` a fresh paint buffer — pure
allocator churn, since both are dropped the moment the segio flushes or
the read returns. A :class:`BufferPool` keeps a small size-classed free
list instead, with hit/miss counters wired into the obs metrics
registry (``pool.segio.*`` / ``pool.read.*``) so the bench gate can
watch the flush path's allocation rate.

Acquire returns a **zeroed** buffer: the segio payload contract is that
unwritten gap bytes read as zeros, and the read path's paint buffer
must start zeroed for unmapped ranges — recycling must be
indistinguishable from fresh allocation, byte for byte. Zeroing is one
in-place ``memset`` (numpy ``fill`` over the buffer), which is the whole
point: reuse the allocation, not the contents. The pool retains only
the buffers on its free list, at most ``max_buffers`` of them — no
per-size zero template outlives them (reads come in dozens of sizes).

Nothing is ever stored by reference to a pooled buffer: it is recycled
(and, sanitized, poison-filled) the moment its user releases it, so
whatever must outlive the release copies out first. Those copies are
safety, not waste: ``OpenSegio.finalize`` materialises write units that
own their bytes before the accumulation buffer comes back here, and
``DataPath.read`` returns ``bytes`` of its paint buffer — for the same
reason ``CBlockCache.put`` owns what it caches rather than aliasing a
caller's write buffer.

Under ``REPRO_SANITIZE=1`` (see :mod:`repro.sanitize`) every pool
carries a :class:`~repro.sanitize.BufferSentry`: released buffers are
poison-filled and double-acquire/double-release/use-after-release all
raise at the moment of detection. The sentry decision is made once at
construction, so the unsanitized fast path pays one ``is None`` check.
"""

import numpy as np

from repro import sanitize


class BufferPool:
    """Size-classed free list of reusable bytearrays."""

    def __init__(self, max_buffers=8, metrics=None, name="pool"):
        self.name = name
        self.max_buffers = max(0, int(max_buffers))
        self._free = {}   # size -> [bytearray, ...]
        self._held = 0
        self.hits = 0
        self.misses = 0
        self.discards = 0
        self._hit_counter = None
        self._miss_counter = None
        self._sentry = sanitize.BufferSentry(name) if sanitize.enabled() \
            else None
        if metrics is not None:
            self.bind_metrics(metrics)

    def bind_metrics(self, metrics):
        """Register hit/miss counters on an obs metrics registry."""
        self._hit_counter = metrics.counter("%s.hits" % self.name)
        self._miss_counter = metrics.counter("%s.misses" % self.name)
        return self

    def acquire(self, size):
        """A zeroed bytearray of exactly ``size`` bytes."""
        stack = self._free.get(size)
        if stack:
            buffer = stack.pop()
            self._held -= 1
            if self._sentry is not None:
                # Poison must be verified BEFORE re-zeroing erases the
                # evidence of any write through a stale reference.
                self._sentry.on_recycle(buffer)
            np.frombuffer(buffer, dtype=np.uint8).fill(0)
            self.hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
            return buffer
        self.misses += 1
        if self._miss_counter is not None:
            self._miss_counter.inc()
        buffer = bytearray(size)
        if self._sentry is not None:
            self._sentry.on_fresh(buffer)
        return buffer

    def release(self, buffer):
        """Return ``buffer`` to the pool; full pools drop it instead."""
        if not isinstance(buffer, bytearray) or not len(buffer):
            return
        if self._sentry is not None:
            # Track (and poison) even buffers the full pool drops below:
            # releasing twice is a caller bug either way.
            self._sentry.on_release(buffer)
        if self._held >= self.max_buffers:
            self.discards += 1
            return
        self._free.setdefault(len(buffer), []).append(buffer)
        self._held += 1

    @property
    def allocations(self):
        """Fresh allocations (pool misses) since construction."""
        return self.misses

    @property
    def hit_rate(self):
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def counters(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "discards": self.discards,
            "held": self._held,
        }
