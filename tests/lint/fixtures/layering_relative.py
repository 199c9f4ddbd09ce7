"""Fixture: placed in src/repro/compression/, relative imports resolve.

Two findings: a sibling of the same layer, and a package above it.
"""

from . import engine                        # own package
from .. import units                        # shared
from ..erasure import rs                    # beside: erasure shares the layer
from .. import core                         # above

PARTS = (engine, units, rs, core)
