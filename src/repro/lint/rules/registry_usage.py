"""registry-resolution: whole-program name-registry reconciliation.

``name-registry-sync`` checks *literal* instrumentation names per file.
This rule closes the two gaps literals leave open:

* **Folded names.** A name assembled at the call site — an f-string, a
  ``%``-format, a ``+`` concatenation, or a reference to a string
  constant — is invisible to the per-file rule. The graph records the
  parts; when every part folds to a constant (project-wide, following
  imports), the assembled name is resolved against the registry like a
  literal would be.
* **Dead entries.** A registry entry nothing references is drift in the
  other direction: the report renders an empty table and nobody knows
  why. Every entry must be *used* somewhere outside the registry
  modules — matched by a literal anywhere in the linted tree, a folded
  name, or a partially-folded pattern (``"%s.hits" % self.name``
  becomes ``.*\\.hits`` and keeps ``pool.segio.hits`` alive).

Registries are parsed from the linted tree itself (constant folding
handles ``CRASHPOINTS = CRASHPOINT_CHOICES + (...)``), so fixture
projects bring their own registries and a tree without any simply has
no findings.
"""

import re

from repro.lint.rule import ProjectRule, register
from repro.lint.rules.registry_sync import _closest

#: (site kind, defining module, constant name) per registry.
REGISTRIES = (
    ("span", "repro.obs.names", "SPAN_NAMES"),
    ("event", "repro.obs.names", "EVENT_NAMES"),
    ("metric", "repro.obs.names", "METRIC_NAMES"),
    ("crashpoint", "repro.faults.plan", "CRASHPOINTS"),
)


@register
class RegistryResolution(ProjectRule):

    id = "registry-resolution"
    summary = ("constant-folded instrumentation names must resolve into "
               "the registries, and every registry entry must be used")
    rationale = (
        "The obs registries (repro.obs.names, repro.faults.plan\n"
        "CRASHPOINTS) are the contract between instrumented call\n"
        "sites and report joins. The per-file rule\n"
        "catches literal typos; this rule folds assembled names\n"
        "(f-strings, %-formats, constant references) project-wide and\n"
        "resolves them the same way, and then reconciles the other\n"
        "direction: an entry no call site, folded name, or pattern can\n"
        "produce is dead — the report column it feeds will always be\n"
        "empty, which is exactly the silent drift the registry exists\n"
        "to prevent."
    )
    example = (
        "PREFIX = \"poool\"                  # typo'd constant\n"
        "\n"
        "def bind(metrics, name):\n"
        "    # folds to \"poool.<name>.hits\" -> matches no registry\n"
        "    # entry pattern -> registry-resolution\n"
        "    return metrics.counter(f\"{PREFIX}.{name}.hits\")\n"
    )

    def check_project(self, graph):
        registries = {}       # kind -> {value: lineno}
        registry_files = {}   # kind -> rel_path
        registry_names = {}   # kind -> "module.CONST"
        for kind, module, const_name in REGISTRIES:
            summary = graph.by_module.get(module)
            if summary is None:
                continue
            entries = graph.fold_string_collection(module, const_name)
            if entries is None:
                continue
            values = {}
            for value, lineno in entries:
                values.setdefault(value, lineno)
            registries[kind] = values
            registry_files[kind] = summary["rel_path"]
            registry_names[kind] = "%s.%s" % (module, const_name)
        if not registries:
            return

        excluded_files = set(registry_files.values())
        literal_uses = set()
        for rel_path in sorted(graph.summaries):
            if rel_path in excluded_files:
                continue
            literal_uses.update(graph.summaries[rel_path]["string_literals"])

        patterns = {kind: [] for kind in registries}
        folded_uses = {kind: set() for kind in registries}

        # Pass 1: fold every recorded site; check fully-folded names.
        for module, qualname, info in graph.iter_functions():
            rel_path = graph.by_module[module]["rel_path"]
            if rel_path in excluded_files:
                continue
            for site in info["name_sites"]:
                kind = site["kind"]
                if kind not in registries:
                    continue
                folded = self._fold_site(graph, module, site["parts"])
                if folded is None:
                    patterns[kind].append(re.compile(".*"))
                    continue
                value, fully, assembled = folded
                if fully:
                    folded_uses[kind].add(value)
                    if assembled and value not in registries[kind]:
                        hint = _closest(value, registries[kind])
                        suffix = ("; did you mean %r?" % hint
                                  if hint else "")
                        yield self.project_finding(
                            graph, rel_path, site["lineno"],
                            "%s name %r (folded from the expression in "
                            "%r) is not in %s%s — add it to the registry "
                            "or fix the parts"
                            % (kind, value, qualname,
                               registry_names[kind], suffix))
                else:
                    patterns[kind].append(re.compile(value))

        # Pass 2: every registry entry must be reachable by some use.
        for kind in sorted(registries):
            for value in sorted(registries[kind]):
                if value in literal_uses or value in folded_uses[kind]:
                    continue
                if any(pattern.fullmatch(value)
                       for pattern in patterns[kind]):
                    continue
                yield self.project_finding(
                    graph, registry_files[kind], registries[kind][value],
                    "registry entry %r in %s is never used by any call "
                    "site, folded name, or literal in the linted tree — "
                    "instrument a site with it or remove the entry"
                    % (value, registry_names[kind]))

    def _fold_site(self, graph, module, parts):
        """(value, fully_folded, assembled) for one site's parts.

        ``value`` is the assembled name when fully folded, else a regex
        source with ``.*`` holes. ``assembled`` is False for a plain
        single literal (the per-file rule already owns those). Returns
        None when nothing useful folds (all holes).
        """
        pieces = []
        fully = True
        assembled = len(parts) != 1 or "lit" not in (parts[0] or {})
        resolved_any = False
        for part in parts:
            if part is None:
                pieces.append(None)
                fully = False
                continue
            if "lit" in part:
                pieces.append(part["lit"])
                resolved_any = True
                continue
            resolved = graph.resolve_constant(module, part["ref"])
            if resolved is not None and resolved[2].get("kind") == "str":
                pieces.append(resolved[2]["value"])
                resolved_any = True
            else:
                pieces.append(None)
                fully = False
        if not resolved_any:
            return None
        if fully:
            return "".join(pieces), True, assembled
        regex = "".join(
            re.escape(piece) if piece is not None else ".*"
            for piece in pieces
        )
        return regex, False, assembled
