"""Deterministic fault injection for the Purity reproduction.

The paper's headline claim is availability under component failure;
this package makes failure a first-class, *scheduled* input instead of
something tests poke in by hand:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan`s (what
  breaks, when), including seeded random generation that respects the
  array's fault-tolerance budget.
* :mod:`repro.faults.injector` — the :class:`FaultInjector` that arms a
  plan against a live array: device-level corruption/stall/torn-write
  hooks inside the simulated SSD timeline, and named ``crashpoint``
  hooks threaded through the datapath, segment writer, WAL, and GC.
* :mod:`repro.faults.chaos` — the chaos harness: run a workload under a
  plan against a target (one array by default, or a cluster through
  :class:`repro.cluster.chaos.ClusterTarget`), crash and recover on
  schedule, and verify the availability invariants (byte-exact reads,
  bounded outages, loss is always *reported*).

Same seed → same plan → same fault trace, so any chaos failure replays
exactly.
"""

from repro.faults.plan import (
    CORRUPT_BURST,
    CRASH,
    DRIVE_FAIL,
    FAULT_KINDS,
    NVRAM_TORN,
    STALL_STORM,
    TORN_FLUSH,
    FaultPlan,
    FaultSpec,
)
from repro.faults.injector import CrashpointRouter, FaultEvent, FaultInjector
from repro.faults.chaos import (
    ArrayTarget,
    ChaosHarness,
    ChaosReport,
    InvariantViolation,
)

__all__ = [
    "ArrayTarget",
    "ChaosHarness",
    "ChaosReport",
    "InvariantViolation",
    "CrashpointRouter",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "DRIVE_FAIL",
    "CORRUPT_BURST",
    "STALL_STORM",
    "TORN_FLUSH",
    "NVRAM_TORN",
    "CRASH",
]
