"""Human and JSON renderings of a :class:`~repro.lint.engine.LintResult`.

Both renderings are deterministic functions of the linted tree: the
findings arrive sorted, the JSON is dumped with ``sort_keys=True`` and
fixed separators, and nothing wall-clock (timestamps, durations, host
names) ever enters a report — the same tree produces byte-identical
output on every run, which is what lets CI diff reports directly.
"""

import json


def render_json(result):
    """The whole result as one stable JSON document (with newline)."""
    document = {
        "checked_files": result.checked_files,
        "errors": len(result.findings),
        "suppressed": result.suppressed_count,
        "findings": [finding.to_dict() for finding in result.findings],
        "ok": result.ok,
    }
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def render_human(result):
    """Readable report: one block per finding plus a summary line."""
    lines = []
    for finding in result.findings:
        lines.append(
            "%s: error [%s] %s"
            % (finding.location(), finding.rule, finding.message)
        )
        if finding.snippet:
            lines.append("    %s" % finding.snippet)
        lines.append(
            "    suppress with: # lint: allow[%s] <reason>" % finding.rule
        )
    lines.append(
        "%d files checked: %d error(s), %d pragma-suppressed"
        % (result.checked_files, len(result.findings),
           result.suppressed_count)
    )
    return "\n".join(lines) + "\n"


def render_explain(rule):
    """``--explain <rule-id>`` output: rationale plus a fixture example."""
    lines = [rule.id, "", rule.summary]
    if rule.rationale:
        lines.append("")
        lines.append("Why:")
        for raw in rule.rationale.splitlines():
            lines.append("  %s" % raw if raw else "")
    if rule.example:
        lines.append("")
        lines.append("Example (violates the rule):")
        for raw in rule.example.splitlines():
            lines.append("  %s" % raw if raw else "")
    lines.append("")
    lines.append("Suppress with: # lint: allow[%s] <one-line reason>"
                 % rule.id)
    return "\n".join(lines) + "\n"


def render_rule_list(rules):
    """``--list-rules`` output: id and one-line summary."""
    return "".join("%-22s %s\n" % (rule.id, rule.summary) for rule in rules)
