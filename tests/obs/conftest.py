"""Every obs test starts and ends with zeroed ``repro.perf`` counters."""

import pytest

from repro.perf import reset_perf_counters


@pytest.fixture(autouse=True)
def _clean_perf():
    reset_perf_counters()
    yield
    reset_perf_counters()
