"""Fixture: placed in src/repro/layout/, every import points down."""

import json

import repro.ssd.device
from repro import obs, sanitize
from repro.errors import EncodingError
from repro.sim.clock import SimClock
from repro.units import KIB
from repro.wire import encode_value

from . import segment
from .pools import BufferPool


def header(clock):
    from repro.erasure import rs            # function-local, still downward
    return (json, repro.ssd.device, obs, sanitize, EncodingError,
            SimClock, KIB, encode_value, segment, BufferPool, rs, clock)
