"""cross-domain-shared-state: module globals written from two worlds.

A module-level mutable written from exactly one execution domain is a
(possibly ugly) cache. The same binding written from *two* domains is a
race against the determinism contract:

* any cluster message handler: every in-process ``ArrayNode`` shares
  the interpreter, so a module-level write from ``handle_*`` is state
  shared between nodes that are modelled as separate machines.
* main + sim-callback: callback ordering belongs to the event queue;
  interleaved writes make replay order load-bearing in a way no local
  reader can see.

Writes are aggregated per (module, binding) over the whole graph, each
writer tagged with its domains; the finding lands on every write site
of an offending binding so a pragma must be argued for at each one.
"""

from repro.lint.domains import (CLUSTER_HANDLER, MAIN, SIM_CALLBACK,
                                build_domains)
from repro.lint.rule import ProjectRule, register


@register
class CrossDomainSharedState(ProjectRule):

    id = "cross-domain-shared-state"
    summary = ("module-level mutables must not be written from more "
               "than one execution domain (main/sim-callback/"
               "cluster-handler)")
    rationale = (
        "Execution domains have different sharing semantics: cluster\n"
        "handle_* methods run in every in-process node (writes are\n"
        "accidentally cross-node), sim callbacks interleave at the\n"
        "event queue's pleasure. A module-level mutable written from two\n"
        "of these worlds — or from any cluster handler at all — is\n"
        "shared state whose final value depends on which world ran,\n"
        "which is exactly what same-seed byte-identity forbids."
    )
    example = (
        "_SEEN = set()            # module-level mutable\n"
        "\n"
        "def record(key):         # called from the main line\n"
        "    _SEEN.add(key)\n"
        "\n"
        "def on_tick(key):        # ...and from a clock.call_at callback\n"
        "    _SEEN.add(key)       # -> cross-domain-shared-state\n"
    )

    def check_project(self, graph):
        domains = build_domains(graph)
        # (module, name) -> [(writer_domains, rel_path, lineno, qualname)]
        writes = {}
        for module, qualname, info in graph.iter_functions():
            writer_domains = domains.domains_of(module, qualname)
            rel_path = graph.by_module[module]["rel_path"]
            for target_module, name, lineno in info["writes"]:
                owner = target_module or module
                writes.setdefault((owner, name), []).append(
                    (frozenset(writer_domains), rel_path, lineno, qualname))

        for (owner, name) in sorted(writes):
            sites = writes[(owner, name)]
            union = set()
            for writer_domains, _, _, _ in sites:
                union.update(writer_domains)
            union.discard("hot")  # hot is a perf tag, not a sharing domain
            cross = len(union & {MAIN, SIM_CALLBACK, CLUSTER_HANDLER}) > 1
            handler_write = CLUSTER_HANDLER in union
            if not cross and not handler_write:
                continue
            reason = ("is written from domains {%s}"
                      % ", ".join(sorted(union)))
            if handler_write and not cross:
                reason = ("is written from a cluster message handler — "
                          "in-process nodes share the interpreter, so "
                          "this is cross-node shared state")
            for writer_domains, rel_path, lineno, qualname in sorted(
                    sites, key=lambda site: (site[1], site[2])):
                yield self.project_finding(
                    graph, rel_path, lineno,
                    "module-level mutable %r (in %s) %s; write here is "
                    "from %r in domain {%s}"
                    % (name, owner, reason, qualname,
                       ", ".join(sorted(writer_domains))))
