"""Service-plane configuration: QoS specs and front-end knobs.

The front end separates *policy* (this module: per-tenant limits,
priority classes, admission thresholds) from *mechanism* (the DRR
scheduler in :mod:`repro.service.qos` and the ladder-driven admission
controller in :mod:`repro.service.admission`). Both configs are frozen
dataclasses in the style of :class:`repro.core.config.ArrayConfig`:
module-level defaults, validated in ``__post_init__``, cheap to fork
with ``dataclasses.replace``.
"""

from dataclasses import dataclass

from repro.units import KIB

#: Priority classes, highest first. The class sets the default DRR
#: weight (gold gets 4x the bandwidth share of bronze at equal backlog)
#: and the shed order: under ladder pressure the *lowest* class is
#: delayed or shed first.
PRIORITY_CLASSES = ("gold", "silver", "bronze")

#: Default DRR weight per priority class.
PRIORITY_WEIGHTS = {"gold": 4, "silver": 2, "bronze": 1}

DEFAULT_PRIORITY = "silver"

#: Token-bucket burst defaults: how far a tenant may exceed its steady
#: rate after idling.
DEFAULT_BURST_OPS = 8
DEFAULT_BURST_BYTES = 256 * KIB

#: Per-tenant admission queue cap (requests, queued + delayed).
DEFAULT_MAX_QUEUE_DEPTH = 64

#: DRR quantum in bytes added per scheduling round per weight unit.
DEFAULT_QUANTUM_BYTES = 64 * KIB


@dataclass(frozen=True)
class QosSpec:
    """One tenant's QoS contract.

    ``iops_limit`` / ``bandwidth_limit`` are enforced by token buckets
    on the sim clock (ops per sim-second and bytes per sim-second);
    ``None`` means unlimited. ``weight`` overrides the priority-class
    DRR weight when set.
    """

    priority: str = DEFAULT_PRIORITY
    iops_limit: float | None = None
    bandwidth_limit: float | None = None
    weight: float | None = None
    burst_ops: int = DEFAULT_BURST_OPS
    burst_bytes: int = DEFAULT_BURST_BYTES

    def __post_init__(self):
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                "priority %r is not one of %s"
                % (self.priority, ", ".join(PRIORITY_CLASSES))
            )
        if self.iops_limit is not None and self.iops_limit <= 0:
            raise ValueError("iops_limit must be > 0 or None")
        if self.bandwidth_limit is not None and self.bandwidth_limit <= 0:
            raise ValueError("bandwidth_limit must be > 0 or None")
        if self.weight is not None and self.weight <= 0:
            raise ValueError("weight must be > 0 or None")

    @property
    def effective_weight(self):
        if self.weight is not None:
            return float(self.weight)
        return float(PRIORITY_WEIGHTS[self.priority])


@dataclass(frozen=True)
class ServiceConfig:
    """Front-end knobs shared by every tenant.

    ``qos_enabled=False`` degrades the scheduler to a single global
    FIFO with no rate limits — the "unbounded" baseline the noisy-
    neighbor benchmark compares against. ``admission_enabled=False``
    admits everything regardless of queue depth or ladder state.
    """

    qos_enabled: bool = True
    admission_enabled: bool = True
    quantum_bytes: int = DEFAULT_QUANTUM_BYTES
    max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH

    def __post_init__(self):
        if self.quantum_bytes < 1:
            raise ValueError("quantum_bytes must be >= 1")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
