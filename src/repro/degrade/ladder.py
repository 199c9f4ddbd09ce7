"""The write-path degradation ladder and repair-debt ledger.

The ladder replaces ad-hoc "is anything broken?" checks with one
explicit state machine:

    normal -> nvram-degraded -> reduced-parity -> read-only

Each rung is *evidence-driven*: a condition (torn NVRAM mirror, failed
drive, detected unsurvivable loss) is raised when the substrate shows
it and cleared only when the matching repair completes. The ladder
state is always the highest rung any active condition demands, and the
machine moves one adjacent rung at a time — never skipping a state in
either direction — so observers see every intermediate mode. Descent
can only ever be caused by :meth:`DegradationLadder.clear_condition`,
i.e. by explicit repair completion; no amount of additional damage
moves the ladder down.

The :class:`RepairDebtLedger` rides along: every degraded artifact
(an NVRAM record that must be replayed, a stripe written at reduced
width) is *counted* when created and settled when repaired, so "how
much repair is outstanding" is a first-class, observable number rather
than something a scrub pass discovers by accident.
"""

from dataclasses import dataclass

from repro.obs.trace import NULL_OBS

#: Ladder states, least to most degraded. The string values are the
#: client-visible mode names used in reports, events, and gauges.
NORMAL = "normal"
NVRAM_DEGRADED = "nvram-degraded"
REDUCED_PARITY = "reduced-parity"
READ_ONLY = "read-only"

LADDER_STATES = (NORMAL, NVRAM_DEGRADED, REDUCED_PARITY, READ_ONLY)

#: state -> rung index (0 = healthy).
RUNG = {state: index for index, state in enumerate(LADDER_STATES)}

#: Conditions that pin the ladder at (at least) a given rung.
COND_NVRAM = "nvram-torn"
COND_PARITY = "parity-reduced"
COND_LOSS = "detected-loss"

_CONDITION_RUNG = {
    COND_NVRAM: RUNG[NVRAM_DEGRADED],
    COND_PARITY: RUNG[REDUCED_PARITY],
    COND_LOSS: RUNG[READ_ONLY],
}


@dataclass(frozen=True)
class LadderTransition:
    """One single-rung step of the ladder, stamped in sim time."""

    time: float
    from_state: str
    to_state: str
    reason: str

    @property
    def upward(self):
        return RUNG[self.to_state] > RUNG[self.from_state]


class DegradationLadder:
    """Condition-driven state machine over :data:`LADDER_STATES`."""

    def __init__(self, clock, obs=NULL_OBS):
        self.clock = clock
        self.obs = obs
        self.state = NORMAL
        #: Every step ever taken, in order (adjacent rungs only).
        self.transitions = []
        self._conditions = {}

    @property
    def rung(self):
        return RUNG[self.state]

    def has_condition(self, condition):
        return condition in self._conditions

    def condition_reason(self, condition):
        return self._conditions.get(condition, "")

    def active_conditions(self):
        """Active condition names, most severe first."""
        return sorted(self._conditions, key=lambda c: -_CONDITION_RUNG[c])

    def raise_condition(self, condition, reason):
        """Record damage evidence; returns True if it was new."""
        if condition not in _CONDITION_RUNG:
            raise ValueError("unknown ladder condition %r" % (condition,))
        if condition in self._conditions:
            return False
        self._conditions[condition] = reason
        self._settle(reason)
        return True

    def clear_condition(self, condition, reason):
        """Record repair completion; the only path that descends."""
        if condition not in _CONDITION_RUNG:
            raise ValueError("unknown ladder condition %r" % (condition,))
        if condition not in self._conditions:
            return False
        del self._conditions[condition]
        self._settle(reason)
        return True

    def _settle(self, reason):
        """Step one adjacent rung at a time toward the demanded rung."""
        target = max(
            (_CONDITION_RUNG[c] for c in self._conditions), default=0
        )
        while RUNG[self.state] != target:
            step = 1 if target > RUNG[self.state] else -1
            next_state = LADDER_STATES[RUNG[self.state] + step]
            transition = LadderTransition(
                time=self.clock.now,
                from_state=self.state,
                to_state=next_state,
                reason=reason,
            )
            self.state = next_state
            self.transitions.append(transition)
            self._publish(transition)

    def _publish(self, transition):
        obs = self.obs
        obs.metrics.gauge("degrade.ladder_state").set(RUNG[transition.to_state])
        obs.metrics.counter("degrade.transitions").inc()
        obs.event(
            "degrade.transition",
            from_state=transition.from_state,
            to_state=transition.to_state,
            reason=transition.reason,
        )


class RepairDebtLedger:
    """Counted repair queue, by category (``nvram-replay``/``segments``)."""

    def __init__(self, obs=NULL_OBS):
        self.obs = obs
        self._debt = {}

    def charge(self, category, amount=1):
        if amount <= 0:
            return
        self._debt[category] = self._debt.get(category, 0) + amount
        self._publish()

    def settle(self, category, amount=1):
        """Burn down debt; clamps at zero (repair can over-deliver)."""
        owed = self._debt.get(category, 0)
        if not owed or amount <= 0:
            return 0
        settled = min(owed, amount)
        remaining = owed - settled
        if remaining:
            self._debt[category] = remaining
        else:
            del self._debt[category]
        self._publish()
        return settled

    def settle_all(self, category):
        return self.settle(category, self._debt.get(category, 0))

    def outstanding(self, category=None):
        if category is not None:
            return self._debt.get(category, 0)
        return sum(self._debt.values())

    def snapshot(self):
        return dict(sorted(self._debt.items()))

    def _publish(self):
        self.obs.metrics.gauge("degrade.repair_debt").set(self.outstanding())
