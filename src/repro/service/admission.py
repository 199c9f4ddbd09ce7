"""Admission control driven by the degradation ladder and governor.

The front end never invents its own health signals: it reads the
array's :class:`~repro.degrade.engine.DegradeEngine` rung and the
:class:`~repro.degrade.backpressure.RebuildGovernor` throttle bit —
the exact signals the degraded-mode layer (PR 7) already maintains —
and turns them into per-request verdicts:

========================  =====================================
ladder rung / signal      verdict
========================  =====================================
queue at max depth        SHED (``queue-full``), any op
``read-only``             SHED (``read-only``) for mutating ops
``reduced-parity``        SHED (``reduced-parity``) for bronze
                          mutating ops; everyone else admitted
``nvram-degraded``        DELAY (``nvram-degraded``) for
                          mutating ops — writes are in slow
                          write-through anyway
governor throttled        DELAY (``rebuild-pressure``) for
                          bronze, any op — rebuild is losing
                          its SLO race; shed load politely
``normal``                ADMIT
========================  =====================================

Reads are always admitted while the queue has room and data may still
exist: the ladder's contract is that reads stay served on every rung.
A DELAY verdict pushes the request's ``eligible_at`` out by the
front end's ``ADMISSION_DELAY``; a SHED verdict completes it
immediately with no backend work.
"""

from repro.degrade.ladder import NVRAM_DEGRADED, READ_ONLY, REDUCED_PARITY
from repro.service.config import PRIORITY_CLASSES
from repro.service.request import (
    MUTATING_OPS,
    VERDICT_ADMIT,
    VERDICT_DELAY,
    VERDICT_SHED,
)

#: The class shed/delayed first under pressure: the lowest one.
SHED_CLASS = PRIORITY_CLASSES[-1]


class AdmissionController:
    """Turns ladder/governor state into ADMIT / DELAY / SHED verdicts."""

    def __init__(self, config):
        self.config = config
        self.admitted = 0
        self.delayed = 0
        self.shed = 0
        #: Insertion-ordered {reason: count} over non-ADMIT verdicts.
        self.reasons = {}

    def decide(self, request, queue_depth, degrade=None, governor=None):
        """Verdict for one request given its tenant's queue depth.

        ``degrade`` / ``governor`` are the backend's live signal
        objects (or None when the backend cannot resolve them, e.g. a
        routed-to node is down — the cluster client will surface that
        error itself, so the request is admitted).
        """
        verdict, reason = self._decide(
            request, queue_depth, degrade, governor
        )
        if verdict == VERDICT_ADMIT:
            self.admitted += 1
        else:
            if verdict == VERDICT_DELAY:
                self.delayed += 1
            else:
                self.shed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return verdict, reason

    def _decide(self, request, queue_depth, degrade, governor):
        if not self.config.admission_enabled:
            return VERDICT_ADMIT, ""
        if queue_depth >= self.config.max_queue_depth:
            return VERDICT_SHED, "queue-full"
        mutating = request.op in MUTATING_OPS
        state = degrade.state if degrade is not None else None
        if state == READ_ONLY and mutating:
            return VERDICT_SHED, "read-only"
        if state == REDUCED_PARITY and mutating \
                and request.priority == SHED_CLASS:
            return VERDICT_SHED, "reduced-parity"
        if state == NVRAM_DEGRADED and mutating:
            return VERDICT_DELAY, "nvram-degraded"
        if governor is not None and governor.enabled \
                and governor.throttled and request.priority == SHED_CLASS:
            return VERDICT_DELAY, "rebuild-pressure"
        return VERDICT_ADMIT, ""

    def report(self):
        return {
            "admitted": self.admitted,
            "delayed": self.delayed,
            "shed": self.shed,
            "reasons": dict(self.reasons),
        }
