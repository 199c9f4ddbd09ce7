"""puritylint: AST-based invariant linting for the sim-deterministic path.

The reproduction's credibility rests on invariants no unit test can
exhaustively police: the data path must never read wall-clock time or
unseeded randomness (same seed must mean byte-identical traces),
exports must be order-stable, and span/metric/crashpoint names must
stay in sync with their registries. ``repro.lint`` enforces them
mechanically:

* a :class:`~repro.lint.rule.Rule` registry of repo-specific AST checks
  (``python -m repro.lint --list-rules``), one of which holds the
  package stack to a strictly downward import order
  (:mod:`repro.lint.rules.layering`);
* per-line suppression pragmas — ``# lint: allow[<rule-id>] reason`` —
  that require a human-readable reason string (and a rule id that
  actually exists);
* deterministic human and ``--format json`` reports (the same tree
  always produces byte-identical output).

Every rule looks at one file at a time; there is no whole-program pass.

Run it as ``python -m repro.lint src tests`` (exit 0 means clean), or
drive it from tests via :func:`run_lint` — which is exactly what the
determinism audit and the repo self-lint test do.
``python -m repro.lint --explain <rule-id>`` prints any rule's
rationale and a minimal violating example.
"""

from repro.lint.engine import LintResult, iter_python_files, run_lint
from repro.lint.rule import Finding, Rule, all_rules, get_rule

# Importing the rules package registers every built-in rule.
from repro.lint import rules as _rules  # noqa: F401  (import-for-effect)

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "run_lint",
]
