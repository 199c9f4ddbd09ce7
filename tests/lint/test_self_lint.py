"""The repo lints itself clean — the acceptance gate, in the fast lane.

Every invariant the rule set encodes (no wall clock on the data path,
seeded randomness everywhere, order-stable exports, registry-synced
instrumentation names, no swallowed failures, strictly downward
imports) holds for the tree as committed: every suppression in the
tree is a pragma carrying a reason.
"""

import pathlib

from repro.lint import run_lint

REPO = pathlib.Path(__file__).resolve().parent.parent.parent


def test_repo_is_lint_clean():
    result = run_lint(
        [str(REPO / "src"), str(REPO / "tests")], root=str(REPO)
    )
    formatted = "\n".join(
        "%s: [%s] %s" % (f.location(), f.rule, f.message)
        for f in result.findings
    )
    assert not result.findings, "the repo must self-lint clean:\n" + formatted
    # A meaningful number of files was actually checked.
    assert result.checked_files > 150


def test_benchmarks_are_lint_clean_too():
    result = run_lint([str(REPO / "benchmarks")], root=str(REPO))
    assert not result.findings, [f.to_dict() for f in result.findings]
