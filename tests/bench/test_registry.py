"""Registry and discovery: the orchestrator sees the whole suite."""

import pytest

from repro.bench.registry import (
    BenchSpec,
    DuplicateBenchError,
    Registry,
    discover,
    register,
)
from repro.bench.runner import GROUP_FILES
from repro.bench.schema import GROUPS, Metric, shape_min
from repro.bench.seeds import SEEDS

#: Every benchmarks/bench_*.py must register exactly one bench.
EXPECTED_BENCHES = {
    "table1_array_comparison",
    "table2_consolidation",
    "fig1_ssd_characteristics",
    "fig2_failover",
    "fig3_segment_layout",
    "fig4_commit_path",
    "fig5_frontier_recovery",
    "fig6_medium_resolution",
    "fig7_five_minute_rule",
    "data_reduction",
    "load_latency",
    "tail_latency",
    "failure_throughput",
    "elision_vs_tombstone",
    "rollback_rates",
    "metadata_compression",
    "worn_flash",
    "raid_ablation",
    "chaos",
    "chaos_degraded",
    "hotpath",
    "cluster",
    "service",
}


@pytest.fixture(scope="module")
def registry():
    return discover()


def test_discover_finds_every_bench_script(registry):
    assert set(registry.names()) == EXPECTED_BENCHES


def test_every_spec_is_well_formed(registry):
    for name in registry.names():
        spec = registry.get(name)
        assert spec.group in GROUPS
        assert spec.title
        assert spec.source.startswith("benchmarks/bench_")
        assert callable(spec.func)


def test_groups_cover_every_artifact(registry):
    assert set(registry.groups()) == set(GROUP_FILES)


def test_quick_subset_is_a_nonempty_proper_subset(registry):
    quick = registry.specs(quick_only=True)
    assert quick
    assert len(quick) < len(registry)


def test_group_filter_accepts_str_and_list(registry):
    chaos = registry.specs(group="chaos")
    assert [spec.name for spec in chaos] == ["chaos", "chaos_degraded"]
    both = registry.specs(group=["chaos", "hotpath"])
    assert {spec.name for spec in both} == {"chaos", "chaos_degraded",
                                            "hotpath"}


def test_every_pinned_seed_belongs_to_a_registered_bench(registry):
    """No orphaned rows in the central seed table."""
    claimed = set()
    for name in registry.names():
        claimed.update(registry.get(name).seeds)
    assert claimed == set(SEEDS)


def test_seed_prefix_matching_is_exact_on_word_boundaries():
    spec = BenchSpec("table1_array_comparison", "paper_shapes", "t",
                     lambda: [], "x", False)
    assert set(spec.seeds) == {"table1.purity", "table1.disk"}
    # "table1" must not leak into a hypothetical "table10_*" bench.
    other = BenchSpec("table10_other", "paper_shapes", "t",
                      lambda: [], "x", False)
    assert "table1.purity" not in other.seeds


def test_duplicate_name_from_different_sources_is_an_error():
    registry = Registry()
    registry.add(BenchSpec("dup", "chaos", "a", lambda: [], "src_a", False))
    with pytest.raises(DuplicateBenchError):
        registry.add(BenchSpec("dup", "chaos", "b", lambda: [], "src_b",
                               False))


def test_same_source_reregistration_replaces_silently():
    registry = Registry()

    @register("re", "chaos", registry=registry)
    def collect_v1():
        return [Metric("m", 1, "x", shape_min(0))]

    @register("re", "chaos", registry=registry)
    def collect_v2():
        return [Metric("m", 2, "x", shape_min(0))]

    assert len(registry) == 1
    assert registry.get("re").func is collect_v2


def test_shared_engine_factory_hosts_independent_engines():
    """Engine construction goes through ``tests.conftest.make_engine``
    everywhere (fixtures and bench smoke paths alike), and two engines
    built in one process share nothing — the per-node scoping the
    cluster layer's N-engines-per-process split depends on."""
    from tests.conftest import make_engine

    first = make_engine(seed=1, volume="v", size=64 * 1024)
    second = make_engine(seed=2, volume="v", size=64 * 1024)
    first.write("v", 0, b"a" * 4096)
    assert second.read("v", 0, 4096)[0] == bytes(4096)
    assert first.clock is not second.clock
    assert first.obs.metrics is not second.obs.metrics
    assert first.config.seed != second.config.seed


def test_register_rejects_unknown_group():
    registry = Registry()
    with pytest.raises(ValueError, match="unknown bench group"):
        @register("bad", "nonsense", registry=registry)
        def collect():
            return []
