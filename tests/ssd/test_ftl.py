"""Tests for the FTL behaviour model."""

import pytest

from repro.sim.rand import RandomStream
from repro.ssd.ftl import MIN_WRITE_AMP, FlashTranslationLayer
from repro.ssd.geometry import SSDGeometry
from repro.units import MIB


@pytest.fixture
def ftl():
    return FlashTranslationLayer(SSDGeometry())


def test_sequential_writes_keep_amplification_low(ftl):
    offset = 0
    for _ in range(200):
        ftl.note_write(offset, MIB)
        offset += MIB
    assert ftl.write_amplification() == pytest.approx(MIN_WRITE_AMP, abs=0.05)
    assert ftl.stall_probability() < 0.005


def test_random_writes_raise_amplification():
    stream = RandomStream(1)
    ftl = FlashTranslationLayer(SSDGeometry())
    for _ in range(400):
        offset = stream.randint(0, 200) * 4096 * 7  # scattered, misaligned
        ftl.note_write(offset, 4096)
    assert ftl.write_amplification() > 2.0
    assert ftl.stall_probability() > 0.02


def test_amplification_recovers_after_returning_to_sequential():
    stream = RandomStream(2)
    ftl = FlashTranslationLayer(SSDGeometry())
    for _ in range(200):
        ftl.note_write(stream.randint(0, 500) * 8192, 4096)
    degraded = ftl.write_amplification()
    offset = 0
    for _ in range(400):
        ftl.note_write(offset, MIB)
        offset += MIB
    assert ftl.write_amplification() < degraded
    assert ftl.write_amplification() == pytest.approx(MIN_WRITE_AMP, abs=0.1)


def test_discard_resets_region_cursor(ftl):
    ftl.note_write(0, MIB)
    ftl.note_discard(0, 8 * MIB)
    # Rewriting from the region start counts as sequential again.
    before = ftl.sequentiality
    ftl.note_write(0, MIB)
    assert ftl.sequentiality >= before


def test_flash_bytes_exceed_host_bytes_under_random_load():
    stream = RandomStream(3)
    ftl = FlashTranslationLayer(SSDGeometry())
    for _ in range(500):
        ftl.note_write(stream.randint(0, 1000) * 4096 * 3, 4096)
    assert ftl.flash_bytes_written > ftl.host_bytes_written


def test_maybe_stall_counts_stalls():
    stream = RandomStream(4)
    ftl = FlashTranslationLayer(SSDGeometry())
    for _ in range(300):
        ftl.note_write(stream.randint(0, 1000) * 4096 * 3, 4096)
    stalls = sum(1 for _ in range(2000) if ftl.maybe_stall(stream) > 0)
    assert stalls == ftl.gc_stalls
    assert stalls > 0
