"""Suite-wide fixtures and determinism guards.

Every test drawing randomness must do so from an explicitly seeded
source. Turning on ``repro.sim.rand.STRICT_SEEDING`` here makes any
``RandomStream()`` constructed without a seed raise for the whole
suite — the runtime half of the determinism audit (the static half is
``tests/test_determinism_audit.py``).

``make_engine`` is the one place the suite constructs a single-array
engine: every per-directory conftest and the cluster layer's per-node
fixtures build through it, so the N-engines-per-process refactor
cannot silently break fixture setup in one directory but not another.
"""

from repro.core.array import PurityArray
from repro.core.config import ArrayConfig
from repro.faults.chaos import ArrayTarget
from repro.sim import rand as _rand


def make_engine(config=None, seed=0, volume=None, size=None, clock=None,
                **overrides):
    """Build one small :class:`PurityArray` engine, optionally with a
    provisioned volume. ``config`` wins; otherwise a fresh
    ``ArrayConfig.small(seed=seed, **overrides)`` is used. Returns the
    array (node-scoped: its config, clock, and metrics registry belong
    to it alone, which is what lets one process host N of them).
    """
    if config is None:
        config = ArrayConfig.small(seed=seed, **overrides)
    elif overrides:
        raise TypeError("pass config or overrides, not both")
    array = PurityArray.create(config, clock=clock)
    if volume is not None:
        array.create_volume(volume, size)
    return array


def assert_chaos_clean(report, target=ArrayTarget):
    """Nothing broke or was lost; each read carries a visited state."""
    assert report.violations == []
    assert report.data_loss is None
    assert report.max_outage < target.OUTAGE_BOUND
    assert report.ops == report.reads + report.writes + report.rmws
    assert sum(report.reads_by_state.values()) >= report.reads
    assert set(report.reads_by_state) <= set(report.ladder_states)


def pytest_configure(config):
    _rand.STRICT_SEEDING = True


def pytest_unconfigure(config):
    _rand.STRICT_SEEDING = False
