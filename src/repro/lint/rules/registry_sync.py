"""name-registry-sync: instrumentation names resolve against registries.

Span, event, and metric names live in :mod:`repro.obs.names`;
crashpoint names live in :data:`repro.faults.plan.CRASHPOINTS`. A typo
at a call site ("io.wrte", "segio-flush" for "segio.flush") would never
crash — it would just fork a name, and every report joining on the real
one would silently render an empty table. This rule resolves string
literals at the four instrumentation call shapes against the
registries, so drift is a lint failure instead of a confusing report:

* ``<obs>.span("name", ...)``,
  ``<obs>.begin("name", ...)``           -> ``SPAN_NAMES``
* ``<obs>.event("name", ...)``           -> ``EVENT_NAMES``
* ``<metrics|registry>.counter/gauge/histogram/series("name")``
                                         -> ``METRIC_NAMES``
* ``<cp>.hit("name", ...)``              -> ``CRASHPOINTS``

Non-literal names are skipped (they cannot be resolved statically), as
are the registry modules themselves.
"""

import ast

from repro.lint.astutil import first_str_arg, receiver_last_name
from repro.lint.rule import Rule, register

METRIC_METHODS = frozenset({"counter", "gauge", "histogram", "series"})

#: Receivers whose counter()/gauge() calls target the MetricsRegistry.
METRIC_RECEIVERS = frozenset({"metrics", "registry"})

#: The registry modules themselves (definitions, not call sites).
REGISTRY_FILES = frozenset({
    "src/repro/obs/names.py",
    "src/repro/faults/plan.py",
})


@register
class NameRegistrySync(Rule):

    id = "name-registry-sync"
    summary = ("span/event/metric/crashpoint string literals must appear "
               "in repro.obs.names / repro.faults.plan registries")
    rationale = (
        "Instrumentation names are join keys: reports group trace spans\n"
        "and metric series by exact string. A typo at a call site never\n"
        "crashes — it forks the name, and the report joining on the\n"
        "real one quietly renders an empty table. Resolving literals\n"
        "against the committed registries turns that silent drift into\n"
        "a lint failure with a nearest-name hint."
    )
    example = (
        "def flush(self, obs):\n"
        "    with obs.span(\"segio-flsuh\"):   # typo: not in SPAN_NAMES\n"
        "        ...                           # hint: 'segio.flush'\n"
    )

    def __init__(self, registries=None):
        #: Overridable for fixture tests; defaults to the live modules.
        self._registries = registries

    def registries(self):
        if self._registries is None:
            from repro.faults.plan import CRASHPOINTS
            from repro.obs.names import EVENT_NAMES, METRIC_NAMES, SPAN_NAMES

            self._registries = {
                "span": frozenset(SPAN_NAMES),
                "event": frozenset(EVENT_NAMES),
                "metric": frozenset(METRIC_NAMES),
                "crashpoint": frozenset(CRASHPOINTS),
            }
        return self._registries

    def applies_to(self, ctx):
        return ctx.in_src and ctx.rel_path not in REGISTRY_FILES

    def check(self, ctx):
        registries = self.registries()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            name = first_str_arg(node)
            if name is None:
                continue
            if method in ("span", "begin"):
                if name not in registries["span"]:
                    yield self._drift(ctx, node, "span", name,
                                      registries["span"],
                                      "repro.obs.names.SPAN_NAMES")
            elif method == "event":
                if name not in registries["event"]:
                    yield self._drift(ctx, node, "event", name,
                                      registries["event"],
                                      "repro.obs.names.EVENT_NAMES")
            elif method == "hit":
                if name not in registries["crashpoint"]:
                    yield self._drift(ctx, node, "crashpoint", name,
                                      registries["crashpoint"],
                                      "repro.faults.plan.CRASHPOINTS")
            elif method in METRIC_METHODS:
                recv = receiver_last_name(node)
                if recv in METRIC_RECEIVERS \
                        and name not in registries["metric"]:
                    yield self._drift(ctx, node, "metric", name,
                                      registries["metric"],
                                      "repro.obs.names.METRIC_NAMES")

    def _drift(self, ctx, node, kind, name, registry, registry_name):
        hint = _closest(name, registry)
        suffix = "; did you mean %r?" % hint if hint else ""
        return self.finding(
            ctx, node,
            "%s name %r is not in %s%s — add it to the registry or fix "
            "the typo" % (kind, name, registry_name, suffix),
        )


def _closest(name, registry):
    """Cheap nearest-name hint: smallest edit distance, ties by name."""
    best, best_cost = None, 4
    for candidate in sorted(registry):
        cost = _edit_distance(name, candidate, cap=best_cost)
        if cost < best_cost:
            best, best_cost = candidate, cost
    return best


def _edit_distance(a, b, cap):
    """Levenshtein with an early-out cap (distances >= cap are cap)."""
    if abs(len(a) - len(b)) >= cap:
        return cap
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (char_a != char_b),
            ))
        if min(current) >= cap:
            return cap
        previous = current
    return min(previous[-1], cap)
