"""Serving-plane defenses against ambiguous failures.

Crashes are the easy case — the engine has handled those since the first
failover drill.  What breaks production serving tiers is the *ambiguous*
middle: a partitioned replica that is merely unreachable, a gray-failed
one that still answers health probes while serving 5x slow.  This module
holds the three classic defenses, each a small deterministic state
machine the engine drives from simulated events:

* :class:`CircuitBreaker` — per-replica closed/open/half-open gate fed by
  probe outcomes.  Consecutive missed probes open the breaker (no new
  dispatch); after a cooldown it goes half-open and admits *probe*
  batches with a seeded probability, closing again only on success.
* :class:`HedgePolicy` — hedged requests: once a batch has been in
  flight longer than a latency percentile of recent service times, a
  backup copy is dispatched to a different replica; the first response
  wins and the duplicate is cancelled and accounted as wasted work.
* :class:`BrownoutController` — graceful degradation ladder under
  overload or mass suspicion: stretch the batching window, then shed the
  bronze traffic tier, then serve only cache hits.  Every transition is
  logged and emitted as a telemetry instant; recovery retraces the
  ladder one rung at a time.

Nothing here uses wall-clock time or unseeded randomness: breaker probe
admission hashes ``(seed, key, attempt)``, hedge deadlines are pure
percentile arithmetic, and the brownout controller is a counter over
tick observations — the same event schedule always produces the same
defensive behaviour, which is what makes the chaos drill's reports
byte-identical.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.stats import sorted_percentile
from repro.resilience.retry import _stable_uniform


# -- circuit breaker ----------------------------------------------------------
class BreakerState(str, enum.Enum):
    CLOSED = "closed"          # healthy: dispatch freely
    OPEN = "open"              # tripped: no dispatch until cooldown
    HALF_OPEN = "half-open"    # probing: seeded trickle of trial batches


#: Hoisted members: the dispatch gate reads a global, not a class attribute.
_CLOSED, _OPEN, _HALF_OPEN = (BreakerState.CLOSED, BreakerState.OPEN,
                              BreakerState.HALF_OPEN)


#: Consecutive probe misses (or dispatch failures) that trip a breaker.
BREAKER_FAILURE_THRESHOLD = 3
#: Seconds a breaker stays open before going half-open.
BREAKER_OPEN_S = 0.5
#: Probability a half-open breaker admits a given dispatch as a probe.
BREAKER_PROBE_PROBABILITY = 0.5
#: Consecutive successes in half-open needed to close again.
BREAKER_SUCCESS_TO_CLOSE = 2


class CircuitBreaker:
    """Closed/open/half-open dispatch gate for one replica.

    Fed by probe outcomes (:meth:`record_success` / :meth:`record_failure`);
    queried by the dispatcher (:meth:`allows_dispatch`).  Time-driven
    state decay (open → half-open) happens lazily inside :meth:`state`,
    so no timer events are needed.
    """

    def __init__(self, key: str, seed: int) -> None:
        self.key = key
        self.seed = seed
        self._state = _CLOSED
        self._consecutive_failures = 0
        self._consecutive_successes = 0
        self._opened_at = 0.0
        self._probe_draws = 0
        #: (time, from, to) rows for the drill report.
        self.transitions: list[tuple[float, str, str]] = []

    def _move(self, now: float, state: BreakerState) -> None:
        """Every caller moves to another state."""
        self.transitions.append((now, self._state.value, state.value))
        self._state = state

    def state(self, now: float) -> BreakerState:
        if (self._state is _OPEN
                and now >= self._opened_at + BREAKER_OPEN_S):
            self._move(now, _HALF_OPEN)
            self._consecutive_successes = 0
        return self._state

    def record_failure(self, now: float) -> None:
        """One missed probe / failed dispatch attributed to this replica."""
        self._consecutive_failures += 1
        self._consecutive_successes = 0
        state = self.state(now)
        if state is _HALF_OPEN or (
                state is _CLOSED
                and self._consecutive_failures
                >= BREAKER_FAILURE_THRESHOLD):
            self._move(now, _OPEN)
            self._opened_at = now

    def record_success(self, now: float) -> None:
        """One answered probe / completed dispatch from this replica."""
        self._consecutive_failures = 0
        if self.state(now) is _HALF_OPEN:
            self._consecutive_successes += 1
            if self._consecutive_successes >= BREAKER_SUCCESS_TO_CLOSE:
                self._move(now, _CLOSED)
        elif self._state is _CLOSED:
            self._consecutive_successes += 1

    def allows_dispatch(self, now: float) -> bool:
        """May the dispatcher start a batch on this replica right now?"""
        if self._state is _CLOSED:
            return True   # state() only ever decays OPEN
        if self.state(now) is _OPEN:
            return False
        # Half-open: admit a seeded trickle of probe batches.
        self._probe_draws += 1
        return (_stable_uniform(self.seed, self.key, self._probe_draws)
                < BREAKER_PROBE_PROBABILITY)


# -- hedged requests ----------------------------------------------------------
class HedgePolicy:
    """When to dispatch a backup copy of an in-flight batch."""

    #: Percentile of the recent service-time window used as the hedge
    #: deadline.  The median (not p95, as in the tail-at-scale paper) is
    #: deliberate: a gray-failed replica in a small pool can contribute a
    #: *large minority* of the window, dragging p95 up to the inflated
    #: service time itself and scheduling every hedge after its batch
    #: already finished.  The median stays anchored on healthy behaviour
    #: as long as most batches are healthy.
    PERCENTILE = 50.0
    #: Headroom multiplier on that percentile.
    MULTIPLIER = 3.0
    #: Never hedge before this much service time has elapsed.
    MIN_DEADLINE_S = 2e-3
    #: Observed service times needed before hedging activates at all.
    MIN_SAMPLES = 8
    #: Recent service times retained for the percentile estimate.
    WINDOW = 64

    def deadline(self, ordered_window: list[float]) -> Optional[float]:
        """Seconds after dispatch at which to hedge, or ``None`` (no data);
        ``ordered_window`` is the recent service times, ascending."""
        if len(ordered_window) < self.MIN_SAMPLES:
            return None
        tail = sorted_percentile(ordered_window, self.PERCENTILE)
        return max(tail * self.MULTIPLIER, self.MIN_DEADLINE_S)


# -- brownout degradation -----------------------------------------------------
class BrownoutLevel(enum.IntEnum):
    """The degradation ladder, mildest first."""

    NORMAL = 0
    STRETCH_BATCH = 1       # grow the batching window (throughput mode)
    SHED_BRONZE = 2         # shed the bronze traffic tier at admission
    CACHE_ONLY = 3          # admit only requests servable from the cache


#: Queue depth per up replica considered overloaded.
BROWNOUT_QUEUE_HIGH_PER_REPLICA = 8.0
#: Consecutive hot ticks before escalating one level.
BROWNOUT_ESCALATE_TICKS = 3
#: Consecutive calm ticks before recovering one level.
BROWNOUT_RECOVER_TICKS = 6
#: ``max_wait_s`` multiplier while at STRETCH_BATCH or deeper.
BROWNOUT_STRETCH_FACTOR = 4.0
#: Fraction of breakers open that counts as overload on its own.
BROWNOUT_BREAKER_OPEN_FRACTION = 0.5


@dataclass
class BrownoutController:
    """Counter-driven ladder over :class:`BrownoutLevel`.

    :meth:`tick` is called on a fixed simulated cadence with the overload
    signals a gateway actually has; it escalates or recovers at most one
    level per call and returns the transition (or ``None``).
    """

    level: BrownoutLevel = BrownoutLevel.NORMAL
    _hot_ticks: int = 0
    _calm_ticks: int = 0
    #: (time, from-level, to-level) rows for the drill report.
    transitions: list[tuple[float, int, int]] = field(default_factory=list)

    def tick(
        self,
        now: float,
        queue_depth: int,
        n_up: int,
        budget_overdraft: bool,
        breakers_open: int = 0,
        breakers_total: int = 0,
    ) -> Optional[tuple[BrownoutLevel, BrownoutLevel]]:
        """Observe one tick of overload signals; maybe move one rung."""
        deep = queue_depth > BROWNOUT_QUEUE_HIGH_PER_REPLICA * max(n_up, 1)
        tripped = (breakers_total > 0
                   and breakers_open
                   >= BROWNOUT_BREAKER_OPEN_FRACTION * breakers_total)
        hot = deep or budget_overdraft or tripped
        if hot:
            self._hot_ticks += 1
            self._calm_ticks = 0
        else:
            self._calm_ticks += 1
            self._hot_ticks = 0
        old = self.level
        if hot and self._hot_ticks >= BROWNOUT_ESCALATE_TICKS \
                and self.level < BrownoutLevel.CACHE_ONLY:
            self.level = BrownoutLevel(self.level + 1)
            self._hot_ticks = 0
        elif not hot and self._calm_ticks >= BROWNOUT_RECOVER_TICKS \
                and self.level > BrownoutLevel.NORMAL:
            self.level = BrownoutLevel(self.level - 1)
            self._calm_ticks = 0
        if self.level is old:
            return None
        self.transitions.append((now, int(old), int(self.level)))
        return (old, self.level)

    @property
    def wait_stretch(self) -> float:
        """Batch-window multiplier implied by the current level."""
        return (BROWNOUT_STRETCH_FACTOR
                if self.level >= BrownoutLevel.STRETCH_BATCH else 1.0)


# -- the switches the engine consumes ----------------------------------------
@dataclass(frozen=True)
class DefenseConfig:
    """The defense switches; disabled by default.

    ``enabled=False`` keeps the serving engine byte-identical to its
    pre-defense behaviour — existing reports, digests and baselines do
    not move.  The chaos drill, the serving CLI's ``--defend`` flag and
    the hedging bench case opt in.  The tuning numbers are the module
    constants above and :class:`HedgePolicy`'s.
    """

    enabled: bool = False
    #: Hedging on/off independently of the rest (the bench control leg
    #: runs breakers+brownout but no hedging to isolate the tail effect).
    hedging_enabled: bool = True
