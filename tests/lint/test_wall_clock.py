"""wall-clock-purity: violating, clean, and pragma-suppressed fixtures."""

from tests.lint.conftest import assert_all_suppressed, assert_clean

RULE = "wall-clock-purity"


def test_violations(lint_fixture):
    result = lint_fixture("wall_clock_violation.py", RULE)
    assert len(result.findings) == 3
    assert all(f.rule == RULE for f in result.findings)
    assert all(f.severity == "error" for f in result.findings)
    messages = "\n".join(f.message for f in result.findings)
    assert "time.monotonic" in messages
    assert "from time import sleep" in messages
    assert not result.ok and result.exit_code() == 1


def test_clean(lint_fixture):
    assert_clean(lint_fixture("wall_clock_clean.py", RULE))


def test_pragma_suppressed(lint_fixture):
    assert_all_suppressed(lint_fixture("wall_clock_pragma.py", RULE))


def test_out_of_scope_in_tests_tree(lint_fixture):
    """The rule only polices shipped source, not the test tree."""
    result = lint_fixture(
        "wall_clock_violation.py", RULE, dest="tests/test_something.py"
    )
    assert_clean(result)


def test_perf_module_is_not_exempt(lint_fixture):
    """No file in src/repro may read the host clock, perf.py included."""
    result = lint_fixture(
        "wall_clock_violation.py", RULE, dest="src/repro/perf.py"
    )
    assert len(result.findings) == 3
