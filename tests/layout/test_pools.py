"""Buffer-pool behaviour: recycling, zeroing, caps, and counters."""

from repro.obs.metrics import MetricsRegistry
from repro.layout.pools import BufferPool


def test_miss_then_hit_recycles_the_same_buffer():
    pool = BufferPool(max_buffers=2)
    first = pool.acquire(64)
    assert pool.misses == 1 and pool.hits == 0
    pool.release(first)
    second = pool.acquire(64)
    assert second is first
    assert pool.hits == 1 and pool.misses == 1


def test_acquire_returns_zeroed_buffers():
    pool = BufferPool(max_buffers=2)
    buffer = pool.acquire(32)
    buffer[:] = b"\xff" * 32
    pool.release(buffer)
    again = pool.acquire(32)
    assert bytes(again) == b"\x00" * 32  # recycling must be invisible


def test_size_classes_do_not_mix():
    pool = BufferPool(max_buffers=4)
    small = pool.acquire(16)
    pool.release(small)
    big = pool.acquire(32)
    assert len(big) == 32 and big is not small
    assert pool.misses == 2


def test_cap_discards_excess_buffers():
    pool = BufferPool(max_buffers=1)
    first, second = pool.acquire(8), pool.acquire(8)
    pool.release(first)
    pool.release(second)
    assert pool.discards == 1
    assert pool.counters()["held"] == 1


def test_release_ignores_foreign_objects():
    pool = BufferPool(max_buffers=2)
    pool.release(b"immutable")
    pool.release(bytearray())
    assert pool.counters()["held"] == 0


def test_metrics_binding_feeds_the_registry():
    registry = MetricsRegistry()
    pool = BufferPool(max_buffers=2, metrics=registry, name="pool.segio")
    buffer = pool.acquire(8)
    pool.release(buffer)
    pool.acquire(8)
    assert registry.counter("pool.segio.misses").value == 1
    assert registry.counter("pool.segio.hits").value == 1
    assert pool.hit_rate == 0.5
    assert pool.allocations == 1


def test_zero_capacity_pool_never_holds():
    pool = BufferPool(max_buffers=0)
    buffer = pool.acquire(8)
    pool.release(buffer)
    assert pool.discards == 1
    assert pool.acquire(8) is not buffer
    assert pool.misses == 2
