"""Fixture: the sim-callback write carries its own pragma."""

import repro.state_mod as state_mod


def arm(clock):
    clock.call_at(5, on_tick)


def on_tick(items):
    for item in items:
        # lint: allow[cross-domain-shared-state] fixture: suppression under test
        state_mod._SEEN.add(item)
