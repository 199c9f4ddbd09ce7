"""Built-in rules; importing this package registers every rule."""

from repro.lint.rules import (
    excepts,
    exports,
    layering,
    randomness,
    registry_sync,
    simclock,
    wallclock,
)

__all__ = [
    "excepts",
    "exports",
    "layering",
    "randomness",
    "registry_sync",
    "simclock",
    "wallclock",
]
