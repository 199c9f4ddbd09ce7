"""Fixtures for the degraded-mode suite: small arrays, same as core."""

import pytest

from repro.core.config import ArrayConfig
from repro.sim.rand import RandomStream
from repro.units import MIB

from tests.conftest import make_engine


@pytest.fixture
def config():
    return ArrayConfig.small()


@pytest.fixture
def array(config):
    return make_engine(config)


@pytest.fixture
def stream():
    return RandomStream(42)


@pytest.fixture
def volume(array):
    array.create_volume("vol0", 2 * MIB)
    return "vol0"


def device_reads(members):
    return sum(
        drive.counters.reads
        for array in members for drive in array.drives.values()
    )


def spy_on_hedges(array, outcomes):
    """Record, per hedged read, the device reads it issued and how much
    of that the policy charged as wasted."""
    reader = array.segreader
    hedged_read = reader._hedged_read

    def spy(*args):
        hedge = reader.hedge
        reads, won, wasted = device_reads([array]), hedge.won, hedge.wasted
        try:
            return hedged_read(*args)
        finally:
            outcomes.append((
                device_reads([array]) - reads,
                hedge.won - won,
                hedge.wasted - wasted,
            ))

    reader._hedged_read = spy
