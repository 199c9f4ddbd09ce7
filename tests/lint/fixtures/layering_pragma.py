"""Fixture: placed in src/repro/layout/, one reasoned pragma (suppressed)."""

# lint: allow[layering] fixture: the pragma mechanism applies to this rule too
from repro.core.config import ArrayConfig

CONFIG = ArrayConfig
