"""Runtime sanitizer mode: checks static analysis cannot prove.

``REPRO_SANITIZE=1`` arms TSan-style instrumentation where the
determinism contract depends on runtime discipline that no AST rule can
verify — the **buffer lifecycle** (:class:`BufferSentry`, wired into
:class:`repro.layout.pools.BufferPool`): released buffers are
poison-filled (``0xA5``); a recycled buffer whose poison was disturbed
means someone wrote through a stale reference (use-after-release), a
buffer released twice or handed out twice is caught by identity, all
raised as :class:`SanitizeError` at the moment of detection.

The checks cost real work (poison fills), so they are opt-in via the
environment and read once per object construction — the hot path stays
branchless when sanitizing is off. :mod:`repro.sanitize.hashseed` adds
the second leg: a subprocess double-run under two ``PYTHONHASHSEED``
values asserting byte-identical traces.
"""

from __future__ import annotations

import os
from typing import Dict

#: The fill byte for released buffers. Chosen non-zero (fresh buffers
#: are zeroed) and asymmetric (0xA5 = 0b10100101) so neither "all
#: zeros" nor "all ones" bugs masquerade as intact poison.
POISON = 0xA5


def enabled() -> bool:
    """Whether sanitizer mode is armed (``REPRO_SANITIZE`` non-empty,
    non-zero). Read at object construction, not per operation."""
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SanitizeError(AssertionError):
    """A runtime determinism-contract violation caught by the sanitizer.

    Subclasses AssertionError so test suites and the chaos harness
    treat a sanitizer hit exactly like a failed invariant assertion.
    """


class BufferSentry:
    """Lifecycle tracker for one :class:`~repro.layout.pools.BufferPool`.

    Tracks live and released buffers by identity (strong references are
    kept to released buffers so CPython cannot recycle an id and fake a
    double-release) and poison-fills on release. All methods raise
    :class:`SanitizeError` on violation and are no-ops on the happy
    path.
    """

    def __init__(self, name: str = "pool"):
        self.name = name
        self._live: Dict[int, bytearray] = {}
        self._released: Dict[int, bytearray] = {}

    def on_fresh(self, buffer: bytearray) -> None:
        """A newly allocated buffer is now live."""
        self._live[id(buffer)] = buffer

    def on_recycle(self, buffer: bytearray) -> None:
        """A buffer is coming off the free list; its poison must be
        intact (else someone wrote through a stale reference), and it
        must not already be live (double-acquire)."""
        key = id(buffer)
        if key in self._live:
            raise SanitizeError(
                "sanitize[%s]: double-acquire — buffer id=%#x handed "
                "out while already live" % (self.name, key))
        if any(byte != POISON for byte in buffer):
            raise SanitizeError(
                "sanitize[%s]: use-after-release — recycled buffer "
                "id=%#x (len=%d) was written through a stale reference "
                "after release (poison disturbed)"
                % (self.name, key, len(buffer)))
        self._released.pop(key, None)
        self._live[key] = buffer

    def on_release(self, buffer: bytearray) -> None:
        """A buffer is being returned; releasing twice is an error.
        The buffer is poison-filled so any later write through a stale
        reference is detectable at the next recycle."""
        key = id(buffer)
        if key in self._released:
            raise SanitizeError(
                "sanitize[%s]: double-release — buffer id=%#x (len=%d) "
                "released twice" % (self.name, key, len(buffer)))
        self._live.pop(key, None)
        self._released[key] = buffer
        buffer[:] = bytes([POISON]) * len(buffer)


__all__ = [
    "POISON",
    "BufferSentry",
    "SanitizeError",
    "enabled",
]
