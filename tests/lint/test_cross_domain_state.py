"""cross-domain-shared-state: module globals written from two worlds."""

from tests.lint.conftest import assert_all_suppressed, assert_clean

RULE = "cross-domain-shared-state"


def test_flags_main_plus_sim_callback_writes(project_lint):
    result = project_lint("project_sharedstate", [RULE])
    seen = [f for f in result.findings if "'_SEEN'" in f.message]
    # Both write sites of the offending binding are reported: the main
    # write in state_mod and the callback write in timer_mod.
    assert len(seen) == 2
    paths = sorted(f.path for f in seen)
    assert paths[0].endswith("state_mod.py")
    assert paths[1].endswith("timer_mod.py")
    assert all("main" in f.message and "sim-callback" in f.message
               for f in seen)


def test_flags_any_cluster_handler_write(project_lint):
    result = project_lint("project_sharedstate", [RULE])
    routes = [f for f in result.findings if "'_ROUTES'" in f.message]
    assert len(routes) == 1
    assert routes[0].path.endswith("cluster/node_mod.py")
    assert "cluster message handler" in routes[0].message


def test_single_domain_writes_are_clean(project_lint):
    assert_clean(project_lint("project_sharedstate_clean", [RULE]))


def test_pragma_suppresses_each_write_site(project_lint):
    result = project_lint("project_sharedstate_pragma", [RULE])
    assert_all_suppressed(result, count=2)
