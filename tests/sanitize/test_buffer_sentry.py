"""BufferSentry: poison-based lifecycle checks on BufferPool."""

import pytest

from repro import sanitize
from repro.layout.pools import BufferPool


@pytest.fixture
def armed(monkeypatch):
    # The pool reads sanitize.enabled() once at construction, so the
    # env must be set before any BufferPool is created.
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def test_use_after_release_is_caught(armed):
    pool = BufferPool(max_buffers=4)
    buffer = pool.acquire(64)
    pool.release(buffer)
    buffer[0] = 1  # write through a stale reference
    with pytest.raises(sanitize.SanitizeError, match="use-after-release"):
        pool.acquire(64)


def test_double_release_is_caught(armed):
    pool = BufferPool(max_buffers=4)
    buffer = pool.acquire(64)
    pool.release(buffer)
    with pytest.raises(sanitize.SanitizeError, match="double-release"):
        pool.release(buffer)


def test_double_acquire_is_caught(armed):
    sentry = sanitize.BufferSentry("t")
    buffer = bytearray(8)
    sentry.on_fresh(buffer)
    with pytest.raises(sanitize.SanitizeError, match="double-acquire"):
        sentry.on_recycle(buffer)


def test_clean_recycle_is_silent_and_still_zeroed(armed):
    pool = BufferPool(max_buffers=4)
    buffer = pool.acquire(64)
    buffer[:] = b"x" * 64
    pool.release(buffer)
    again = pool.acquire(64)
    assert again is buffer
    # The poison fill must be invisible to correct code: acquire still
    # returns all-zeros, exactly like a fresh allocation.
    assert bytes(again) == bytes(64)
    pool.release(again)


def test_sentry_off_without_env(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    pool = BufferPool(max_buffers=4)
    buffer = pool.acquire(16)
    pool.release(buffer)
    buffer[0] = 7  # stale write goes undetected when disarmed
    again = pool.acquire(16)
    assert bytes(again) == bytes(16)


def test_disabled_values(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitize.enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "")
    assert not sanitize.enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitize.enabled()
