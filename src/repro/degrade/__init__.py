"""Degraded-mode operation layer.

Purity's availability story (PAPER.md §reads/§availability) is that the
array *reacts* to component trouble instead of waiting it out: reads
reconstruct around busy or sick drives, writes keep flowing at reduced
protection through failures, and background repair is throttled so it
never ruins foreground latency. This package is that reaction layer:

- :mod:`repro.degrade.engine` — :class:`DegradeEngine`, the explicit
  write-path degradation ladder (``normal → nvram-degraded →
  reduced-parity → read-only``) and the repair debt it counts; the
  array wires it through datapath/segwriter/recovery/rebuild.
- :mod:`repro.degrade.hedge` — the deadline-aware hedged-read policy
  consulted by ``segreader`` before every direct device read.
- :mod:`repro.degrade.backpressure` — the token-bucket rebuild governor
  that throttles segment evacuation when foreground p99 crosses the
  configured SLO.

Everything here runs on the sim clock and is deterministic: policies
only *read* device state (never mutate it), so same-seed traces are
byte-identical with hedging on or off when no hedge fires.
"""

from repro.degrade.backpressure import RebuildGovernor, TokenBucket
from repro.degrade.engine import (
    COND_LOSS,
    COND_NVRAM,
    COND_PARITY,
    LADDER_STATES,
    NORMAL,
    NVRAM_DEGRADED,
    READ_ONLY,
    REDUCED_PARITY,
    DegradeEngine,
    LadderTransition,
)
from repro.degrade.hedge import HedgePolicy

__all__ = [
    "COND_LOSS",
    "COND_NVRAM",
    "COND_PARITY",
    "DegradeEngine",
    "HedgePolicy",
    "LADDER_STATES",
    "LadderTransition",
    "NORMAL",
    "NVRAM_DEGRADED",
    "READ_ONLY",
    "REDUCED_PARITY",
    "RebuildGovernor",
    "TokenBucket",
]
