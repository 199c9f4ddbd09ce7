"""layering: the stack imports strictly downward.

The paper's engine is a strict stack (Section 4): segments sit on
drives, pyramids sit on segments, mediums and volumes sit on pyramids.
Every package under ``src/repro`` has a place in :data:`LAYERS`, and a
module may import only its own package or a package from a lower
layer. Packages that share a layer are independent of one another.
Function-local imports count exactly like top-level ones: deferring an
import into a function is how an upward dependency hides, not how it
goes away.

:data:`SHARED` is the vocabulary and instrumentation every layer uses
(errors, units, tracing, host timers, the buffer sanitizer). Any module
may import it, and it sits outside the order. The root facade
(``src/repro/__init__.py``) sits above everything. A package in neither
table is itself a finding at every import that touches it, so a new
package is placed before the stack can depend on it.
"""

import ast

from repro.lint.rule import Rule, register

#: Bottom to top. ``degrade`` imports only ``errors`` and ``core.array``
#: composes it, so it sits with the codecs, below ``core``.
LAYERS = (
    ("wire",),
    ("sim",),
    ("ssd",),
    ("compression", "dedup", "degrade", "erasure"),
    ("layout",),
    ("metadata",),
    ("pyramid",),
    ("mediums",),
    ("core",),
    ("faults",),
    ("cluster",),
    ("service",),
    ("analysis", "baselines", "bench", "lint", "workloads"),
)

#: Importable from any layer; outside the order.
SHARED = frozenset({"errors", "obs", "perf", "sanitize", "units"})

RANK = {package: rank for rank, layer in enumerate(LAYERS)
        for package in layer}


def imported_packages(node, here):
    """The ``repro`` packages one import statement names.

    ``here`` is the importing module's package path (``["repro",
    "core"]``); relative imports resolve against it.
    """
    if isinstance(node, ast.ImportFrom):
        base = here[:len(here) - node.level + 1] if node.level else []
        module = base + (node.module.split(".") if node.module else [])
        if module == ["repro"]:
            return [alias.name for alias in node.names]
        names = [".".join(module)]
    else:
        names = [alias.name for alias in node.names]
    return [name.split(".")[1] for name in names
            if name.startswith("repro.")]


@register
class Layering(Rule):

    id = "layering"
    summary = ("src/repro imports strictly down the layer table; errors, "
               "units, obs, perf and sanitize are shared")
    rationale = (
        "The engine is a stack: a layer may use the layers beneath it\n"
        "and nothing above. An upward import ties a low layer to a high\n"
        "one, so neither can be tested, replaced or understood alone,\n"
        "and two of them make an import cycle. Move the shared code\n"
        "below both users, or move the dependency up a layer."
    )
    example = (
        "# src/repro/layout/segreader.py\n"
        "from repro.core.config import READ_RETRY_LIMIT   # core is above\n"
        "                                                 # layout\n"
    )

    def applies_to(self, ctx):
        return ctx.in_src and ctx.parts[2] != "__init__.py"

    def check(self, ctx):
        here = ctx.parts[2].removesuffix(".py")
        if here in SHARED:
            return
        package_path = list(ctx.parts[1:-1])
        for node in ctx.imports.statements:
            for there in imported_packages(node, package_path):
                if there == here or there in SHARED:
                    continue
                unplaced = [p for p in (here, there) if p not in RANK]
                if unplaced:
                    yield self.finding(
                        ctx, node,
                        "repro.%s has no layer; place it in "
                        "repro.lint.rules.layering.LAYERS" % unplaced[0],
                    )
                elif RANK[there] >= RANK[here]:
                    yield self.finding(
                        ctx, node,
                        "repro.%s imports repro.%s, which sits %s it; "
                        "move what they share below both"
                        % (here, there, "beside" if RANK[there] == RANK[here]
                           else "above"),
                    )
