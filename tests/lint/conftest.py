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
    "hot-path-copy": "src/repro/layout/fixture_mod.py",
}


@pytest.fixture
def project_lint(tmp_path):
    """Copy a multi-file fixture directory into a fake repo and run
    whole-program rules over it.

    ``project_lint("project_sharedstate", ["cross-domain-shared-state"])``
    copies every ``.py`` under ``fixtures/project_sharedstate/`` to
    ``<tmp>/src/repro/<same relative path>`` and lints the fake repo's
    ``src`` tree with exactly the named rules.
    """

    def run(fixture_dir, rule_ids, cache_path=None):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
        source_dir = FIXTURES / fixture_dir
        for path in sorted(source_dir.rglob("*.py")):
            rel = path.relative_to(source_dir)
            target = tmp_path / "src" / "repro" / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(path.read_text())
        rules = [get_rule(rule_id) for rule_id in rule_ids]
        return run_lint([str(tmp_path / "src")], root=str(tmp_path),
                        rules=rules, cache_path=cache_path)

    return run


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
