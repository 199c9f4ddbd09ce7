"""Shared machinery for the lint suite.

Fixture snippets live in ``tests/lint/fixtures/`` — a directory the
engine's directory walk deliberately skips, so the repo self-lint never
trips over the intentionally broken ones. Tests copy a snippet into a
throwaway fake repo (``<tmp>/pyproject.toml`` + ``src/repro/...``) so
path-scoped rules see it as shipped source, then lint it explicitly.
"""

import pathlib

import pytest

from repro.lint import get_rule, run_lint

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

#: Default in-fake-repo destination per rule, for rules that scope by path.
RULE_DESTINATIONS = {
    "layering": "src/repro/layout/fixture_mod.py",
}


@pytest.fixture
def lint_fixture(tmp_path):
    """Copy a fixture into a fake repo and lint it with one rule.

    Returns a callable: ``lint_fixture("wall_clock_violation.py",
    "wall-clock-purity")`` -> :class:`repro.lint.engine.LintResult`.
    """

    def run(fixture_name, rule_id, dest=None):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
        dest = dest or RULE_DESTINATIONS.get(
            rule_id, "src/repro/module_under_test.py"
        )
        target = tmp_path / dest
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text((FIXTURES / fixture_name).read_text())
        return run_lint(
            [str(target)], root=str(tmp_path), rules=[get_rule(rule_id)]
        )

    return run


def assert_clean(result):
    assert result.findings == [], [f.to_dict() for f in result.findings]
    assert result.ok


def assert_all_suppressed(result, count=1):
    assert result.findings == [], [f.to_dict() for f in result.findings]
    assert result.suppressed_count == count
