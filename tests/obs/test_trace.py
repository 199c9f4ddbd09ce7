"""Unit tests for the span/event trace collector."""

import pytest

from repro.obs.trace import NO_SPAN, NULL_OBS, Observability
from repro.sim.clock import SimClock


@pytest.fixture
def obs():
    return Observability(SimClock()).enable_tracing()


def test_span_nesting_and_record_shape(obs):
    with obs.span("io.write", volume="v0") as root:
        with obs.span("compress") as child:
            obs.clock.advance(0.5)
            child.set(lat=0.001)
        root.set(lat=0.002)
    records = obs.records
    assert [r["name"] for r in records] == ["compress", "io.write"]
    compress, write = records
    assert compress["parent"] == write["id"]
    assert write["parent"] == 0
    assert compress["start"] == 0.0
    assert compress["end"] == 0.5
    assert compress["attrs"] == {"lat": 0.001}
    assert write["attrs"] == {"volume": "v0", "lat": 0.002}


def test_events_attach_to_current_span(obs):
    with obs.span("io.write"):
        obs.event("fault", kind="drive-fail", target="ssd3")
    fault = obs.events("fault")[0]
    assert fault["parent"] == obs.spans("io.write")[0]["id"]
    assert fault["attrs"]["target"] == "ssd3"
    # Events outside any span parent to the root sentinel.
    orphan = obs.event("fault", kind="stall")
    assert orphan["parent"] == 0


def test_end_discards_abandoned_children(obs):
    # A crash unwound past the inner spans: ending the outer span must
    # pop (and discard) the orphans so the stack never corrupts.
    outer = obs.begin("io.write")
    obs.begin("dedup")
    obs.begin("compress")
    obs.end(outer, crashed=True)
    assert [r["name"] for r in obs.records] == ["io.write"]
    assert obs.current_span_id == 0
    # The collector keeps working afterwards.
    span = obs.begin("io.read")
    obs.end(span)
    assert obs.spans("io.read")


def test_span_ids_are_sequential_and_reset(obs):
    with obs.span("a") as first:
        pass
    with obs.span("b") as second:
        pass
    assert second.span_id == first.span_id + 1
    obs.reset()
    assert obs.records == []
    with obs.span("c") as again:
        pass
    assert again.span_id == first.span_id


def test_spans_and_events_share_one_id_sequence(obs):
    with obs.span("io.write"):
        pass
    obs.event("fault")
    assert [record["id"] for record in obs.records] == [1, 2]
    assert obs.buffer.next_id == 3


def test_null_obs_is_off():
    assert NULL_OBS.tracing is False
    NULL_OBS.metrics.counter("faults.fired").inc()
    NULL_OBS.metrics.histogram("segio.flush.latency").record(0.001)
    snapshot = NULL_OBS.metrics.snapshot()
    assert "faults.fired" not in snapshot["counters"]
    assert snapshot["histograms"] == {}


def test_filters(obs):
    with obs.span("gc.run"):
        pass
    with obs.span("scrub.run"):
        pass
    assert len(obs.spans()) == 2
    assert [r["name"] for r in obs.spans("gc.run")] == ["gc.run"]
    assert obs.events() == []


class _Injected(Exception):
    pass


def test_exception_through_span_records_it_crashed(obs):
    error = _Injected("boom")
    with pytest.raises(_Injected) as raised:
        with obs.span("io.write", volume="v0") as span:
            span.set(lat=0.001)
            raise error
    assert raised.value is error
    assert len(obs.records) == 1
    record = obs.records[0]
    assert record["name"] == "io.write"
    assert record["attrs"] == {"volume": "v0", "lat": 0.001, "crashed": True}
    assert obs.current_span_id == 0


def test_one_exception_unwinds_nested_spans_inner_first(obs):
    with pytest.raises(_Injected):
        with obs.span("io.write"):
            with obs.span("segio-append"):
                raise _Injected()
    write, append = obs.spans("io.write")[0], obs.spans("segio-append")[0]
    assert [r["name"] for r in obs.records] == ["segio-append", "io.write"]
    assert append["parent"] == write["id"]
    assert append["attrs"] == {"crashed": True}
    assert write["attrs"] == {"crashed": True}
    assert obs.current_span_id == 0


def test_span_with_tracing_off_is_the_shared_no_span():
    obs = Observability(SimClock())
    with obs.span("io.write", volume="v0") as span:
        assert span is NO_SPAN
        span.set(lat=0.001)
    with pytest.raises(_Injected):
        with obs.span("io.read"):
            raise _Injected()
    assert obs.records == []
    assert obs.buffer.next_id == 1


def test_event_with_tracing_off_records_nothing():
    obs = Observability(SimClock())
    assert obs.event("fault", kind="stall") is None
    assert obs.records == []
    assert obs.buffer.next_id == 1
