"""Ladder mechanics plus the property test over seeded fault schedules.

The two load-bearing invariants (DESIGN.md "Degraded modes"):

* the ladder moves one adjacent rung at a time — observers see every
  intermediate state, in both directions;
* the ladder never descends except through a repair call — no amount
  of *additional* damage moves it toward ``normal``.

Every step here goes through the engine's own ``note_*`` intake and
repair calls, the only way the array moves it.
"""

import pytest

from repro.degrade.engine import (
    COND_LOSS,
    COND_NVRAM,
    COND_PARITY,
    LADDER_STATES,
    NORMAL,
    NVRAM_DEGRADED,
    READ_ONLY,
    REDUCED_PARITY,
    RUNG,
    DegradeEngine,
)
from repro.sim.clock import SimClock
from repro.sim.rand import RandomStream

CONDITIONS = (COND_NVRAM, COND_PARITY, COND_LOSS)
#: The rung each condition pins, stated independently of the engine.
EXPECTED_RUNG = {COND_NVRAM: 1, COND_PARITY: 2, COND_LOSS: 3}


def make_engine():
    return DegradeEngine(SimClock())


def damage(engine, condition, reason):
    if condition == COND_NVRAM:
        engine.note_nvram_tear()
    elif condition == COND_PARITY:
        engine.note_drive_failed(reason)
    else:
        engine.note_unsurvivable(reason)


def repair(engine, condition, reason):
    if condition == COND_NVRAM:
        engine.note_nvram_repaired()
    elif condition == COND_PARITY:
        engine.note_parity_restored()
    else:
        engine.acknowledge_loss_repair(reason)


def test_starts_normal_with_no_conditions():
    engine = make_engine()
    assert engine.state == NORMAL
    assert engine.rung == 0
    assert engine.transitions == []
    assert engine.active_conditions() == []


def test_single_condition_pins_its_rung():
    engine = make_engine()
    engine.note_nvram_tear()
    assert engine.state == NVRAM_DEGRADED
    engine.note_nvram_tear()  # already raised: no second transition
    assert len(engine.transitions) == 1
    engine.note_drive_failed("d0")
    engine.note_drive_failed("d1")  # the first reason sticks
    assert engine.state == REDUCED_PARITY
    assert engine.report()["conditions"] == {
        COND_PARITY: "drive-failed:d0", COND_NVRAM: "nvram-tear",
    }
    assert engine.failed_drives == {"d0", "d1"}


def test_escalation_walks_every_intermediate_state():
    engine = make_engine()
    engine.note_unsurvivable("three drives down")
    assert engine.state == READ_ONLY
    # normal -> nvram-degraded -> reduced-parity -> read-only: 3 steps.
    assert [t.to_state for t in engine.transitions] == [
        NVRAM_DEGRADED, REDUCED_PARITY, READ_ONLY,
    ]
    assert all(RUNG[t.to_state] > RUNG[t.from_state]
               for t in engine.transitions)
    assert {t.reason for t in engine.transitions} == {"three drives down"}


def test_descent_walks_every_intermediate_state():
    engine = make_engine()
    engine.note_unsurvivable("loss")
    engine.acknowledge_loss_repair("operator-verified")
    assert engine.state == NORMAL
    down = engine.transitions[3:]
    assert [t.to_state for t in down] == [REDUCED_PARITY, NVRAM_DEGRADED, NORMAL]
    assert all(RUNG[t.to_state] < RUNG[t.from_state] for t in down)


def test_clearing_one_of_two_conditions_settles_at_the_survivor():
    engine = make_engine()
    engine.note_nvram_tear()
    engine.note_drive_failed("d0")
    assert engine.state == REDUCED_PARITY
    engine.note_parity_restored()
    assert engine.state == NVRAM_DEGRADED  # the tear still pins rung 1
    assert engine.write_through
    engine.note_nvram_repaired()
    assert engine.state == NORMAL
    assert not engine.write_through


def test_more_damage_never_descends():
    engine = make_engine()
    engine.note_unsurvivable("loss")
    engine.note_nvram_tear()  # lower-rung damage
    assert engine.state == READ_ONLY
    engine.acknowledge_loss_repair("restored")
    assert engine.state == NVRAM_DEGRADED  # tear still outstanding


def test_repair_without_damage_is_a_no_op():
    engine = make_engine()
    engine.note_parity_restored()
    engine.note_nvram_repaired()
    engine.acknowledge_loss_repair()
    engine.note_segment_reprotected(7)
    assert engine.state == NORMAL
    assert engine.transitions == []
    assert engine.repair_debt() == {}


def test_repair_debt_counts_what_the_engine_tracks():
    engine = make_engine()
    engine.note_degraded_stripe(3)
    engine.note_degraded_stripe(3)  # one stripe is one debt
    engine.note_degraded_stripe(5)
    engine.note_nvram_tear(pending_records=2)
    engine.note_nvram_tear(pending_records=0)
    assert engine.repair_debt() == {"nvram-replay": 2, "segments": 2}
    engine.note_segment_reprotected(3)
    engine.note_segment_reprotected(3)  # never below zero
    assert engine.repair_debt() == {"nvram-replay": 2, "segments": 1}
    engine.note_write_through_drain()
    assert engine.repair_debt() == {"segments": 1}
    engine.note_parity_restored()
    assert engine.repair_debt() == {}
    assert engine.degraded_segments == frozenset()


# ----------------------------------------------------------------------
# Property test: 200 seeded damage/repair schedules


def _expected_rung(active):
    return max((EXPECTED_RUNG[c] for c in active), default=0)


@pytest.mark.parametrize("seed_base", [0, 1000])
def test_ladder_never_skips_or_descends_uninvited(seed_base):
    """200 random damage/repair schedules: every transition is one rung,
    and every downward step happens during a repair call."""
    for seed in range(seed_base, seed_base + 100):
        stream = RandomStream(seed).fork("ladder-schedule")
        engine = make_engine()
        active = set()
        for _op in range(40):
            condition = stream.choice(CONDITIONS)
            clearing = stream.randint(0, 1) == 1
            seen = len(engine.transitions)
            if clearing:
                repair(engine, condition, "repair s%d" % seed)
                active.discard(condition)
            else:
                damage(engine, condition, "damage s%d" % seed)
                active.add(condition)
            fresh = engine.transitions[seen:]
            for transition in fresh:
                step = RUNG[transition.to_state] - RUNG[transition.from_state]
                assert abs(step) == 1, (
                    "seed %d skipped a state: %r" % (seed, transition)
                )
                if step < 0:
                    assert clearing, (
                        "seed %d descended without a repair: %r"
                        % (seed, transition)
                    )
            # The settled state always matches the active-condition set.
            assert engine.state == LADDER_STATES[_expected_rung(active)]
            assert set(engine.active_conditions()) == active
