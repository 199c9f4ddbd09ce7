"""Fixture: the sim callback only *reads*; no cross-domain write."""

import repro.state_mod as state_mod


def arm(clock):
    clock.call_at(5, on_tick)


def on_tick(items):
    return [item for item in items if item not in state_mod._SEEN]
