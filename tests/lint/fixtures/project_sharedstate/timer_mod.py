"""Fixture: the same mutable written from a sim callback too."""

import repro.state_mod as state_mod


def arm(clock):
    clock.call_at(5, on_tick)


def on_tick(items):
    for item in items:
        state_mod._SEEN.add(item)
