"""Fixture: placed in src/repro/layout/, two upward imports (2 findings)."""

from repro.core.config import ArrayConfig   # top-level: core sits above
from repro.errors import EncodingError


def open_frontend():
    from repro.service import frontend      # function-local: still upward
    return frontend, ArrayConfig, EncodingError
