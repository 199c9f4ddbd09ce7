"""Execution-domain classification over the project graph.

The determinism contract is enforced differently depending on *where*
code runs, not just what it does:

* ``sim-callback`` — scheduled onto the simulated clock via
  ``call_at``/``call_in``. Ordering is the event queue's, so shared
  state written here interleaves with the main line.
* ``cluster-handler`` — ``handle_*`` message handlers in
  ``repro.cluster``. Every in-process node shares the interpreter, so a
  module-level write here is cross-node shared state.
* ``hot`` — the layout/erasure/compression inner loops (advisory
  perf domain, reused by the hot-path rule).
* ``main`` — everything else (the single-threaded simulation line).

Closures are computed by BFS over resolved call edges.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.lint.graph import ProjectGraph

#: Modules whose functions sit on the per-I/O hot path.
HOT_SUBSYSTEMS = ("repro.layout", "repro.erasure", "repro.compression")

SIM_CALLBACK = "sim-callback"
CLUSTER_HANDLER = "cluster-handler"
HOT = "hot"
MAIN = "main"

FunctionKey = Tuple[str, str]  # (module, qualname)


class DomainMap:
    """Domain membership for every src function."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        #: (module, qualname) -> set of domain names (never includes
        #: ``main``; absence of all others means main).
        self.domains: Dict[FunctionKey, Set[str]] = {}
        self._build()

    # -- construction ---------------------------------------------------

    def _build(self) -> None:
        callback_roots = []
        handler_roots = []
        for module, qualname, info in self.graph.iter_functions():
            key = (module, qualname)
            if module.startswith("repro.cluster") \
                    and qualname.split(".")[-1].startswith("handle_"):
                handler_roots.append(key)
            if any(module == sub or module.startswith(sub + ".")
                   for sub in HOT_SUBSYSTEMS):
                self._add(key, HOT)
            for ref, _lineno in info["callback_refs"]:
                resolved = self.graph.resolve_call(module, qualname, ref)
                if resolved is not None:
                    callback_roots.append(resolved)

        self._close_over(callback_roots, SIM_CALLBACK)
        self._close_over(handler_roots, CLUSTER_HANDLER)

    def _add(self, key: FunctionKey, domain: str) -> None:
        self.domains.setdefault(key, set()).add(domain)

    def _close_over(self, roots: List[FunctionKey], domain: str) -> None:
        """BFS the call graph from ``roots``, tagging every reachable
        function with ``domain``."""
        queue = deque()
        for root in sorted(set(roots)):
            if domain in self.domains.get(root, ()):
                continue
            self._add(root, domain)
            queue.append(root)
        while queue:
            module, qualname = queue.popleft()
            info = self._function_info(module, qualname)
            if info is None:
                continue
            for chain, _lineno in info["calls"]:
                resolved = self.graph.resolve_call(module, qualname, chain)
                if resolved is None:
                    continue
                if domain in self.domains.get(resolved, ()):
                    continue
                self._add(resolved, domain)
                queue.append(resolved)

    def _function_info(self, module: str, qualname: str):
        summary = self.graph.by_module.get(module)
        if summary is None:
            return None
        return summary["functions"].get(qualname)

    # -- queries --------------------------------------------------------

    def domains_of(self, module: str, qualname: str) -> Set[str]:
        """The function's domains; ``{"main"}`` when untagged."""
        tagged = self.domains.get((module, qualname))
        if not tagged:
            return {MAIN}
        return set(tagged)

    def in_domain(self, module: str, qualname: str, domain: str) -> bool:
        if domain == MAIN:
            return not self.domains.get((module, qualname))
        return domain in self.domains.get((module, qualname), ())


def build_domains(graph: ProjectGraph) -> DomainMap:
    """The one-call entry point rules use."""
    return DomainMap(graph)
