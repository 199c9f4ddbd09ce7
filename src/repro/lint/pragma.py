"""Per-line suppression pragmas.

A finding is suppressed by a pragma comment **with a reason**::

    value = time.monotonic_ns()  # lint: allow[wall-clock-purity] perf accounting only

The pragma may sit on the offending line or, when the line is too long
already, alone on the line directly above::

    # lint: allow[stable-export] snapshot() pre-sorts every section
    for name, value in snapshot["counters"].items():

Several rules can share one pragma: ``allow[rule-a,rule-b] reason``.
A pragma without a reason string does **not** suppress anything — the
reason is the audit trail — and instead surfaces as a ``bad-pragma``
finding so it cannot silently rot.
"""

import re

from repro.lint.rule import Finding

PRAGMA = re.compile(
    r"#\s*lint:\s*allow\[(?P<rules>[a-z0-9\-_,\s]+)\]\s*(?P<reason>.*)$"
)


def parse_pragmas(lines):
    """Map line number -> {rule_id: reason} for ``lines`` of source.

    Returns ``(pragmas, malformed)`` where ``malformed`` is a list of
    (lineno, text) pairs for reason-less pragmas.
    """
    pragmas = {}
    malformed = []
    for lineno, line in enumerate(lines, start=1):
        match = PRAGMA.search(line)
        if match is None:
            continue
        reason = match.group("reason").strip()
        if not reason:
            malformed.append((lineno, line.strip()))
            continue
        allowed = {
            rule_id.strip(): reason
            for rule_id in match.group("rules").split(",")
            if rule_id.strip()
        }
        entry = pragmas.setdefault(lineno, {})
        entry.update(allowed)
        # A comment-only pragma line also covers the next line of code.
        stripped = line.strip()
        if stripped.startswith("#"):
            pragmas.setdefault(lineno + 1, {}).update(allowed)
    return pragmas, malformed


def suppressed(pragmas, finding):
    """Whether ``finding`` is covered by a pragma on its line."""
    entry = pragmas.get(finding.line)
    return entry is not None and finding.rule in entry


def unknown_rule_findings(ctx, known_ids):
    """Pragmas naming rule ids that do not exist are findings.

    A pragma with a typo'd id (``allow[wall-clock-pruity]``) suppresses
    nothing today and — worse — *looks* like an audit trail. Validation
    runs over pragma declaration sites (not the propagated per-line
    map, which would double-report comment-only pragmas) against the
    full rule registry, regardless of which rules this run selected.
    """
    findings = []
    for lineno, line in enumerate(ctx.lines, start=1):
        match = PRAGMA.search(line)
        if match is None or not match.group("reason").strip():
            continue  # reason-less pragmas are bad-pragma findings
        for rule_id in match.group("rules").split(","):
            rule_id = rule_id.strip()
            if rule_id and rule_id not in known_ids:
                findings.append(Finding(
                    path=ctx.rel_path,
                    line=lineno,
                    col=0,
                    rule="unknown-pragma-rule",
                    message="pragma names unknown rule id %r; it can "
                            "never suppress anything (see --list-rules "
                            "for the catalogue)" % rule_id,
                    snippet=line.strip(),
                ))
    return findings


def malformed_findings(ctx, malformed):
    """Turn reason-less pragmas into findings of their own."""
    return [
        Finding(
            path=ctx.rel_path,
            line=lineno,
            col=0,
            rule="bad-pragma",
            message="pragma has no reason string; write "
                    "'# lint: allow[<rule-id>] why this is intentional'",
            snippet=text,
        )
        for lineno, text in malformed
    ]
