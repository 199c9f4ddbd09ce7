"""Hot-path event counters.

Caches, the health monitor, fault injection and the chaos harnesses
bump named counters (cblock cache hits/misses/evictions/invalidations,
read retries, injected faults, ...). ``perf_report()`` rolls the totals
up into a plain dict benchmarks print and regress against. Counters
only: host time is measured outside the program, by ``benchmarks/perf``.

This module sits below every subsystem (it imports nothing) so the
dedup, layout, fault and observability layers can all feed the same
singleton without import cycles. The friendly re-exports live in
:mod:`repro.core.telemetry`.
"""


class PerfCounters:
    """Named event counters plus the rates derived from them."""

    def __init__(self):
        self._counters = {}

    def incr(self, name, amount=1):
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name):
        return self._counters.get(name, 0)

    def report(self):
        """Rolled-up snapshot: counters and derived rates."""
        counters = {name: self._counters[name] for name in sorted(self._counters)}
        derived = {}
        hits = counters.get("cblock-cache-hit", 0)
        misses = counters.get("cblock-cache-miss", 0)
        if hits + misses:
            derived["cblock-cache-hit-rate"] = hits / (hits + misses)
        return {"counters": counters, "derived": derived}

    def reset(self):
        self._counters.clear()


#: Process-wide counters every pipeline stage charges into.
PERF = PerfCounters()


def perf_report():
    """Snapshot of the global perf counters (see :class:`PerfCounters`)."""
    return PERF.report()


def reset_perf_counters():
    """Zero the global counters (benchmark harnesses, test isolation)."""
    PERF.reset()


def format_perf_report(report=None):
    """Human-readable rendering of :func:`perf_report` for benchmarks."""
    report = report if report is not None else perf_report()
    lines = ["counters:"]
    for name, value in report["counters"].items():
        lines.append("  %-28s %12d" % (name, value))
    for name, value in report["derived"].items():
        lines.append("  %-28s %12.3f" % (name, value))
    return "\n".join(lines)
