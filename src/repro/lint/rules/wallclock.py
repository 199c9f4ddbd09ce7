"""wall-clock-purity: the data path never reads the host clock.

Same seed must mean byte-identical traces, which dies the moment any
``src/repro`` module reads wall-clock time — simulated time comes from
:class:`repro.sim.clock.SimClock` and nothing else. No file in
``src/repro`` is exempt: host time is measured only from outside the
program, by ``benchmarks/perf``; tests and benchmarks are out of scope.

Flagged: any *reference* to ``time.time/monotonic/monotonic_ns/
perf_counter[_ns]/process_time[_ns]/time_ns/sleep``, ``datetime.now/
utcnow/today`` (and ``date.today``) — references, not just calls, so
``monotonic = time.monotonic_ns`` cannot smuggle a clock in. From-form
imports of those names are flagged at the import.
"""

import ast

from repro.lint.rule import Rule, register

WALL_CLOCK_ATTRS = frozenset({
    "time", "time_ns",
    "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns",
    "sleep",
})

DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

@register
class WallClockPurity(Rule):

    id = "wall-clock-purity"
    summary = ("no wall-clock reads anywhere in src/repro; sim time comes "
               "from SimClock, host time is measured in benchmarks/perf")
    rationale = (
        "Same seed must mean byte-identical traces and metrics, so the\n"
        "host's clock can never influence the program: any timestamp\n"
        "that reaches a trace, an export, or a control decision must\n"
        "come from the simulated SimClock. Host time is measured only\n"
        "in benchmarks/perf, which wraps the program from outside."
    )
    example = (
        "import time\n"
        "\n"
        "def flush(segio):\n"
        "    started = time.monotonic()   # wall clock in the program\n"
        "    ...                          # fix: clock.now (sim time), or\n"
        "                                 # time it from benchmarks/perf\n"
    )

    def applies_to(self, ctx):
        return ctx.in_src

    def check(self, ctx):
        time_aliases = ctx.imports.module_aliases("time")
        datetime_aliases = ctx.imports.module_aliases("datetime")
        datetime_classes = set(ctx.imports.from_imports("datetime"))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in WALL_CLOCK_ATTRS:
                        yield self.finding(
                            ctx, node,
                            "wall-clock import 'from time import %s'; use the "
                            "sim clock (host timing belongs in benchmarks/perf)"
                            % alias.name,
                        )
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name):
                    if base.id in time_aliases \
                            and node.attr in WALL_CLOCK_ATTRS:
                        yield self.finding(
                            ctx, node,
                            "wall-clock read 'time.%s'; simulated components "
                            "take their time from SimClock.now" % node.attr,
                        )
                    elif (base.id in datetime_classes
                            or base.id in datetime_aliases) \
                            and node.attr in DATETIME_ATTRS:
                        yield self.finding(
                            ctx, node,
                            "wall-clock read '%s.%s'; nothing host-time-"
                            "dependent may enter sim state or exports"
                            % (base.id, node.attr),
                        )
                elif isinstance(base, ast.Attribute) \
                        and isinstance(base.value, ast.Name) \
                        and base.value.id in datetime_aliases \
                        and node.attr in DATETIME_ATTRS:
                    # datetime.datetime.now / datetime.date.today
                    yield self.finding(
                        ctx, node,
                        "wall-clock read 'datetime.%s.%s'"
                        % (base.attr, node.attr),
                    )
