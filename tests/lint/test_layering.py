"""layering: fixtures, the layer table's coverage, and the real tree."""

import pathlib

from repro.lint import get_rule, run_lint
from repro.lint.pragma import parse_pragmas
from repro.lint.rules.layering import LAYERS, RANK, SHARED

from tests.lint.conftest import assert_all_suppressed, assert_clean

RULE = "layering"
REPO = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"


def test_violations_top_level_and_function_local(lint_fixture):
    result = lint_fixture("layering_violation.py", RULE)
    assert [(f.line, f.rule) for f in result.findings] == [
        (3, RULE), (8, RULE)]
    assert "repro.layout imports repro.core, which sits above it" \
        in result.findings[0].message
    assert "repro.service" in result.findings[1].message
    assert not result.ok


def test_clean_shared_and_downward_imports(lint_fixture):
    assert_clean(lint_fixture("layering_clean.py", RULE))


def test_pragma_suppressed(lint_fixture):
    assert_all_suppressed(lint_fixture("layering_pragma.py", RULE))


def test_relative_imports_resolve_and_siblings_stay_apart(lint_fixture):
    result = lint_fixture("layering_relative.py", RULE,
                          dest="src/repro/compression/fixture_mod.py")
    messages = [f.message for f in result.findings]
    assert len(messages) == 2, messages
    assert "repro.erasure, which sits beside it" in messages[0]
    assert "repro.core, which sits above it" in messages[1]


def test_unplaced_package_is_a_finding(lint_fixture):
    result = lint_fixture("layering_violation.py", RULE,
                          dest="src/repro/newpkg/mod.py")
    assert [f.message for f in result.findings] == [
        "repro.newpkg has no layer; place it in "
        "repro.lint.rules.layering.LAYERS"] * 2


def test_every_package_has_exactly_one_place():
    packages = {
        path.name if path.is_dir() else path.stem
        for path in PACKAGE.iterdir()
        if (path.is_dir() and (path / "__init__.py").exists())
        or (path.suffix == ".py" and path.name != "__init__.py")
    }
    placed = [package for layer in LAYERS for package in layer]
    assert len(placed) == len(set(placed)) == len(RANK)
    assert not set(placed) & SHARED
    assert packages == set(placed) | SHARED


def test_real_tree_is_layered_without_pragmas():
    result = run_lint([str(PACKAGE)], root=str(REPO),
                      rules=[get_rule(RULE)])
    assert result.findings == [], [f.to_dict() for f in result.findings]
    assert result.suppressed_count == 0
    for path in sorted(PACKAGE.rglob("*.py")):
        pragmas, _ = parse_pragmas(path.read_text().splitlines())
        assert not any(RULE in entry for entry in pragmas.values()), path
