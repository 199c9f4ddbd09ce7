"""ArrayConfig construction: the stock scales and the one-value workers field."""

import pytest

from repro.core.config import ArrayConfig


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
