"""Admission-control unit tests: one verdict per ladder rung."""

from repro.degrade.engine import (
    NVRAM_DEGRADED,
    READ_ONLY,
    REDUCED_PARITY,
)
from repro.service import AdmissionController, ServiceConfig
from repro.service.request import (
    OP_READ,
    OP_WRITE,
    VERDICT_ADMIT,
    VERDICT_DELAY,
    VERDICT_SHED,
    Request,
)


class FakeDegrade:
    def __init__(self, state):
        self.state = state


class FakeGovernor:
    def __init__(self, throttled):
        self.enabled = True
        self.throttled = throttled


def make_request(op=OP_WRITE, priority="silver"):
    data = b"\x00" * 512 if op == OP_WRITE else None
    return Request(
        seq=1, tenant="t", op=op, volume="v", offset=0, length=512,
        data=data, arrival=0.0, priority=priority,
    )


def controller(**kwargs):
    return AdmissionController(ServiceConfig(**kwargs))


def test_normal_state_admits_everything():
    admission = controller()
    verdict, reason = admission.decide(make_request(), 0)
    assert (verdict, reason) == (VERDICT_ADMIT, "")


def test_queue_full_sheds_any_op():
    admission = controller(max_queue_depth=4)
    verdict, reason = admission.decide(make_request(OP_READ), 4)
    assert (verdict, reason) == (VERDICT_SHED, "queue-full")


def test_read_only_sheds_writes_serves_reads():
    admission = controller()
    degrade = FakeDegrade(READ_ONLY)
    verdict, reason = admission.decide(
        make_request(OP_WRITE), 0, degrade=degrade
    )
    assert (verdict, reason) == (VERDICT_SHED, "read-only")
    verdict, _reason = admission.decide(
        make_request(OP_READ), 0, degrade=degrade
    )
    assert verdict == VERDICT_ADMIT


def test_reduced_parity_sheds_only_lowest_class_writes():
    admission = controller()
    degrade = FakeDegrade(REDUCED_PARITY)
    verdict, reason = admission.decide(
        make_request(OP_WRITE, priority="bronze"), 0, degrade=degrade
    )
    assert (verdict, reason) == (VERDICT_SHED, "reduced-parity")
    verdict, _reason = admission.decide(
        make_request(OP_WRITE, priority="gold"), 0, degrade=degrade
    )
    assert verdict == VERDICT_ADMIT


def test_nvram_degraded_delays_writes():
    admission = controller()
    degrade = FakeDegrade(NVRAM_DEGRADED)
    verdict, reason = admission.decide(
        make_request(OP_WRITE), 0, degrade=degrade
    )
    assert (verdict, reason) == (VERDICT_DELAY, "nvram-degraded")
    verdict, _reason = admission.decide(
        make_request(OP_READ), 0, degrade=degrade
    )
    assert verdict == VERDICT_ADMIT


def test_throttled_governor_delays_lowest_class():
    admission = controller()
    governor = FakeGovernor(throttled=True)
    verdict, reason = admission.decide(
        make_request(OP_READ, priority="bronze"), 0, governor=governor
    )
    assert (verdict, reason) == (VERDICT_DELAY, "rebuild-pressure")
    verdict, _reason = admission.decide(
        make_request(OP_READ, priority="gold"), 0, governor=governor
    )
    assert verdict == VERDICT_ADMIT


def test_disabled_admission_admits_past_full_queue():
    admission = controller(admission_enabled=False, max_queue_depth=1)
    verdict, _reason = admission.decide(
        make_request(), 99, degrade=FakeDegrade(READ_ONLY)
    )
    assert verdict == VERDICT_ADMIT


def test_counters_and_reasons_accumulate():
    admission = controller(max_queue_depth=1)
    admission.decide(make_request(), 0)
    admission.decide(make_request(), 1)
    admission.decide(make_request(), 1)
    report = admission.report()
    assert report["admitted"] == 1
    assert report["shed"] == 2
    assert report["reasons"] == {"queue-full": 2}
