"""Token bucket and rebuild governor: deterministic throttling on the
sim clock, and strict no-op behavior when the SLO is unset."""

import pytest

from repro.degrade.backpressure import RebuildGovernor, TokenBucket
from repro.obs.trace import NULL_OBS, Observability
from repro.sim.clock import SimClock


def test_bucket_starts_full_and_refills_on_sim_time():
    clock = SimClock()
    bucket = TokenBucket(clock, rate=2.0, burst=4)
    assert bucket.available() == pytest.approx(4.0)
    for _grab in range(4):
        assert bucket.try_take()
    assert not bucket.try_take()
    clock.advance(1.0)  # 2 tokens accrue
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()


def test_bucket_caps_at_burst():
    clock = SimClock()
    bucket = TokenBucket(clock, rate=100.0, burst=3)
    clock.advance(60.0)
    assert bucket.available() == pytest.approx(3.0)


def test_set_rate_accrues_at_the_old_rate_first():
    clock = SimClock()
    bucket = TokenBucket(clock, rate=4.0, burst=10)
    while bucket.try_take():
        pass
    clock.advance(1.0)  # 4 tokens at the old rate
    bucket.set_rate(1.0)
    clock.advance(1.0)  # 1 more at the new rate
    assert bucket.available() == pytest.approx(5.0)


def test_bucket_rejects_degenerate_parameters():
    clock = SimClock()
    with pytest.raises(ValueError):
        TokenBucket(clock, rate=0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(clock, rate=1, burst=0)
    with pytest.raises(ValueError):
        TokenBucket(clock, rate=1, burst=1).set_rate(0)


def make_governor(clock, obs=NULL_OBS, slo=0.01):
    return RebuildGovernor(
        clock, slo_p99=slo, full_rate=8.0, throttled_rate=1.0,
        burst=2, window=16, obs=obs,
    )


def test_disabled_governor_always_grants_and_touches_no_metrics():
    clock = SimClock()
    obs = Observability(clock)
    governor = RebuildGovernor(clock, slo_p99=None, obs=obs)
    assert not governor.enabled
    governor.observe_read_latency(5.0)
    for _request in range(1000):
        assert governor.grant()
    assert governor.foreground_p99() is None
    # Byte-identity guard: the disabled governor must leave the metric
    # registry exactly as it found it. (snapshot() merges the global
    # perf counters under ``perf.counter.*`` — only registry-local
    # names matter here.)
    snapshot = obs.metrics.snapshot()
    local = [name for name in snapshot["counters"]
             if not name.startswith("perf.counter.")]
    assert local == []
    assert snapshot["gauges"] == {}


def test_governor_throttles_when_p99_crosses_the_slo():
    clock = SimClock()
    obs = Observability(clock)
    governor = make_governor(clock, obs=obs)
    for _read in range(16):
        governor.observe_read_latency(0.001)  # well under the SLO
    assert governor.grant()
    assert not governor.throttled
    for _read in range(16):
        governor.observe_read_latency(0.05)  # 5x over the SLO
    assert governor.foreground_p99() == pytest.approx(0.05)
    granted = sum(1 for _request in range(10) if governor.grant())
    assert governor.throttled
    assert granted < 10  # the bucket ran dry at the throttled rate
    assert governor.deferred > 0
    assert obs.metrics.gauge("rebuild.throttle_rate").value == 1.0
    # Latency recovering flips the governor back to the full rate.
    for _read in range(16):
        governor.observe_read_latency(0.001)
    governor.grant()
    assert not governor.throttled
    assert obs.metrics.gauge("rebuild.throttle_rate").value == 8.0


def test_throttled_rate_still_makes_progress_over_time():
    clock = SimClock()
    governor = make_governor(clock)
    for _read in range(16):
        governor.observe_read_latency(1.0)  # hopelessly over SLO
    while governor.grant():
        pass
    clock.advance(3.0)  # 3 tokens accrue at throttled_rate=1/s ...
    granted = sum(1 for _request in range(10) if governor.grant())
    assert granted == 2  # ... but the bucket caps at burst=2


def test_same_schedule_same_decisions():
    def run():
        clock = SimClock()
        governor = make_governor(clock)
        decisions = []
        for step in range(64):
            governor.observe_read_latency(0.05 if step % 7 else 0.001)
            decisions.append(governor.grant())
            clock.advance(0.125)
        return decisions

    assert run() == run()
