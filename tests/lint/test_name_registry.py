"""name-registry-sync: violating, clean, and pragma-suppressed fixtures."""

from tests.lint.conftest import assert_all_suppressed, assert_clean

RULE = "name-registry-sync"


def test_violations_with_nearest_name_hints(lint_fixture):
    result = lint_fixture("name_registry_violation.py", RULE)
    assert len(result.findings) == 5
    by_message = "\n".join(f.message for f in result.findings)
    # One drifted name of each kind, each with a did-you-mean hint.
    assert "'io.wrte'" in by_message and "'io.write'" in by_message
    assert "'drive.replaced'" in by_message and "'drive.replace'" in by_message
    assert "'gc.segments_colected'" in by_message \
        and "'gc.segments_collected'" in by_message
    assert "'segwriter.mid-flsh'" in by_message \
        and "'segwriter.mid-flush'" in by_message
    assert "'segio.flsh'" in by_message and "'segio.flush'" in by_message


def test_clean_skips_dynamic_names(lint_fixture):
    assert_clean(lint_fixture("name_registry_clean.py", RULE))


def test_pragma_suppressed(lint_fixture):
    assert_all_suppressed(lint_fixture("name_registry_pragma.py", RULE))


def test_registries_cover_each_other():
    """Plan-schedulable crashpoints are a subset of the full registry."""
    from repro.faults.plan import CRASHPOINT_CHOICES, CRASHPOINTS

    assert set(CRASHPOINT_CHOICES) <= set(CRASHPOINTS)
    # Registry names are unique and non-empty.
    from repro.obs.names import EVENT_NAMES, METRIC_NAMES, SPAN_NAMES

    for registry in (SPAN_NAMES, EVENT_NAMES, METRIC_NAMES):
        assert registry and all(name.strip() for name in registry)
