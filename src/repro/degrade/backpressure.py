"""Rebuild/scrub backpressure: a sim-clock token bucket with an SLO eye.

Rebuild after a drive failure is a race (the paper rebuilds "as fast as
the drives allow") — but an enterprise array must not win that race by
destroying foreground latency. The governor meters segment evacuations
through a token bucket whose refill rate switches between a full and a
throttled rate based on whether the recent foreground read p99 is
meeting the configured SLO, mirroring the rebuild rate-limiting of
production scale-out block stores.

Everything runs on the sim clock (lazy refill at query time), draws no
randomness, and — when the SLO is ``None`` (the default) — grants every
request without touching a single metric, keeping default-config runs
byte-identical to the pre-governor code.
"""

from repro.obs.trace import NULL_OBS


class TokenBucket:
    """Deterministic token bucket refilled lazily from the sim clock."""

    def __init__(self, clock, rate, burst):
        if rate <= 0 or burst < 1:
            raise ValueError("token bucket needs rate > 0 and burst >= 1")
        self.clock = clock
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._refilled_at = clock.now

    def set_rate(self, rate):
        """Switch refill rate; accrues at the old rate up to now first."""
        if rate <= 0:
            raise ValueError("token bucket rate must be > 0")
        self._refill()
        self.rate = float(rate)

    def available(self):
        self._refill()
        return self._tokens

    def try_take(self, tokens=1):
        """Consume ``tokens`` if available; never blocks or waits."""
        self._refill()
        if self._tokens + 1e-12 < tokens:
            return False
        self._tokens -= tokens
        return True

    def _refill(self):
        now = self.clock.now
        elapsed = now - self._refilled_at
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._refilled_at = now


class RebuildGovernor:
    """Grants or defers repair I/O based on foreground latency health.

    ``slo_p99=None`` disables the governor entirely: :meth:`grant`
    always succeeds and no metric is ever created, so default configs
    are bit-for-bit unchanged.
    """

    def __init__(self, clock, slo_p99=None, full_rate=None, throttled_rate=None,
                 burst=None, window=None, obs=NULL_OBS):
        self.clock = clock
        self.slo_p99 = slo_p99
        self.obs = obs
        self.enabled = slo_p99 is not None
        self.deferred = 0
        self.granted = 0
        if not self.enabled:
            self.full_rate = self.throttled_rate = None
            self._bucket = None
            self._window = None
            return
        self.full_rate = float(full_rate)
        self.throttled_rate = float(throttled_rate)
        self._bucket = TokenBucket(clock, self.full_rate, burst)
        self._window_size = int(window)
        self._window = []
        self.throttled = False

    def observe_read_latency(self, latency):
        """Feed one foreground read latency into the sliding window."""
        if not self.enabled:
            return
        window = self._window
        window.append(latency)
        if len(window) > self._window_size:
            del window[0]

    def foreground_p99(self):
        """Exact p99 over the window (nearest-rank); None when empty."""
        if not self.enabled or not self._window:
            return None
        ordered = sorted(self._window)
        rank = min(len(ordered) - 1, int(0.99 * (len(ordered) - 1) + 0.5))
        return ordered[rank]

    def grant(self, tokens=1):
        """True if a repair operation may run now; False = defer it."""
        if not self.enabled:
            return True
        self._retune()
        if self._bucket.try_take(tokens):
            self.granted += 1
            return True
        self.deferred += 1
        return False

    def report(self):
        return {
            "enabled": self.enabled,
            "slo_p99": self.slo_p99,
            "throttled": self.enabled and self.throttled,
            "granted": self.granted,
            "deferred": self.deferred,
            "foreground_p99": self.foreground_p99(),
        }

    def _retune(self):
        p99 = self.foreground_p99()
        throttled = p99 is not None and p99 > self.slo_p99
        if throttled != self.throttled:
            self.throttled = throttled
            rate = self.throttled_rate if throttled else self.full_rate
            self._bucket.set_rate(rate)
            self.obs.metrics.gauge("rebuild.throttle_rate").set(rate)
