"""Config construction: the stock scales, the one-value workers field,
and the fields that became module constants."""

import pytest

from repro.cluster import ClusterConfig
from repro.core.config import ArrayConfig
from repro.service import ServiceConfig


def test_stock_configs_construct_serial():
    assert ArrayConfig().workers == 0
    assert ArrayConfig.small(workers=0).workers == 0
    assert ArrayConfig.paper_scale(workers=0).workers == 0


@pytest.mark.parametrize("workers", [2, None])
def test_any_worker_count_but_zero_is_refused(workers):
    with pytest.raises(ValueError, match="pool was removed"):
        ArrayConfig.small(workers=workers)


@pytest.mark.parametrize("knob", ["chunk_items", "min_items", "rs_chunk_cols"])
def test_pool_partitioning_knobs_are_gone(knob):
    with pytest.raises(TypeError):
        ArrayConfig.small(**{"parallel_" + knob: 1})


@pytest.mark.parametrize("config_class, field", [
    (ClusterConfig, "heartbeat_interval"),
    (ClusterConfig, "suspect_after"),
    (ClusterConfig, "dead_after"),
    (ClusterConfig, "copy_chunk_bytes"),
    (ClusterConfig, "copy_interval"),
    (ClusterConfig, "max_retries"),
    (ClusterConfig, "failover_slack"),
    (ServiceConfig, "admission_delay"),
    (ServiceConfig, "default_tenant"),
    (ArrayConfig, "max_concurrent_writes"),
])
def test_fixed_values_are_not_fields(config_class, field):
    with pytest.raises(TypeError):
        config_class(**{field: 1})
