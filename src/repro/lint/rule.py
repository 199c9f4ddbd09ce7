"""Rule base class, the Finding record, and the rule registry.

A rule is a stateless object with an ``id`` and a ``check(ctx)``
generator. Every finding is an error: a violated invariant fails the
run unless a pragma with a reason suppresses it.

Rules register themselves via the :func:`register` decorator at import
time; :func:`all_rules` hands the engine one instance of each, sorted
by id so every run visits rules in the same order.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, ordered for stable reports."""

    path: str          # repo-relative, posix separators
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"   # the one severity; kept in the JSON report
    snippet: str = field(default="", compare=False)

    def location(self):
        return "%s:%d" % (self.path, self.line)

    def to_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "snippet": self.snippet,
        }


class Rule:
    """Base class for AST lint rules.

    Subclasses set ``id`` (kebab-case), ``summary`` (one line for
    ``--list-rules``), and implement :meth:`check`.
    :meth:`applies_to` gates whole files cheaply before any AST walk.
    ``rationale`` and ``example`` feed ``--explain <rule-id>``: the
    rationale says why the invariant exists, the example is a minimal
    violating snippet (mirroring the rule's fixture pack).
    """

    id = None
    summary = ""
    #: Multi-line prose for ``--explain``: why this invariant matters.
    rationale = ""
    #: A minimal violating snippet for ``--explain``.
    example = ""

    def applies_to(self, ctx):
        """Whether this rule should look at ``ctx`` at all."""
        return True

    def check(self, ctx):
        """Yield :class:`Finding`s for ``ctx`` (a ``FileContext``)."""
        raise NotImplementedError

    # -- helpers shared by every concrete rule --------------------------

    def finding(self, ctx, node, message):
        """Build a Finding anchored at ``node`` (any ast node)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.rel_path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
            snippet=ctx.snippet(line),
        )


_REGISTRY = {}


def register(rule_cls):
    """Class decorator: add ``rule_cls`` to the global registry."""
    if not rule_cls.id:
        raise ValueError("rule %r has no id" % (rule_cls,))
    if rule_cls.id in _REGISTRY:
        raise ValueError("duplicate rule id %r" % (rule_cls.id,))
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules():
    """One fresh instance of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id):
    """Instantiate one rule by id (KeyError if unknown)."""
    return _REGISTRY[rule_id]()


def rule_ids():
    return sorted(_REGISTRY)
