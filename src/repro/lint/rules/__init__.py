"""Built-in rules; importing this package registers every rule."""

from repro.lint.rules import (
    excepts,
    exports,
    hotpath,
    iteration,
    randomness,
    registry_sync,
    registry_usage,
    sharedstate,
    simclock,
    timeouts,
    wallclock,
)

__all__ = [
    "excepts",
    "exports",
    "hotpath",
    "iteration",
    "randomness",
    "registry_sync",
    "registry_usage",
    "sharedstate",
    "simclock",
    "timeouts",
    "wallclock",
]
