"""Retry with exponential backoff and deterministic jitter.

Production schedulers (IBM Deep Learning Service, Slurm's requeue) back a
failed job off before requeueing it so a flapping node doesn't thrash the
queue, and add jitter so simultaneous failures don't retry in lock-step.
Jitter here is *deterministic*: a stable hash of (seed, job key, attempt)
drives it, so simulations replay identically and delays stay reproducible
across processes and Python hash randomisation.

Monotonicity guarantee: ``BACKOFF_FACTOR >= 1 + JITTER``, which makes the
delay sequence per job non-decreasing in the attempt number even at the
jitter extremes — the property suite sweeps this.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass


def _stable_uniform(seed: int, key: str, attempt: int) -> float:
    """Uniform [0, 1) from a stable hash — independent of call order."""
    digest = hashlib.blake2b(
        f"{seed}:{key}:{attempt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with bounded deterministic jitter.

    ``delay(attempt)`` for attempt 1, 2, ... is
    ``base_delay_s * BACKOFF_FACTOR**(attempt-1) * (1 + JITTER * u)`` with
    ``u`` uniform in [0, 1) derived from ``(seed, key, attempt)``.  The
    factor covers the jitter (``BACKOFF_FACTOR >= 1 + JITTER``), so delays
    never decrease.
    """

    BACKOFF_FACTOR = 2.0
    JITTER = 0.25

    max_retries: int = 3
    base_delay_s: float = 30.0
    seed: int = 0
    max_delay_s: float = 24 * 3600.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not (self.max_retries >= 0):
            raise ValueError("max_retries must be non-negative")
        if not (self.base_delay_s > 0):
            raise ValueError("base_delay_s must be positive")
        if not (self.max_delay_s > 0):
            raise ValueError("max_delay_s must be positive")

    def should_retry(self, attempt: int) -> bool:
        """True if a job that has failed ``attempt`` times may run again."""
        if attempt < 0:
            raise ValueError("attempt count must be non-negative")
        return attempt <= self.max_retries

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff delay (s) before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        # Compare in log space first: for large attempts the exponential
        # overflows float range long before min() could cap it, so when
        # the un-jittered delay already reaches the cap, return the cap
        # directly (jitter only pushes it further over).
        log_raw = (math.log(self.base_delay_s)
                   + (attempt - 1) * math.log(self.BACKOFF_FACTOR))
        if log_raw >= math.log(self.max_delay_s):
            return self.max_delay_s
        raw = self.base_delay_s * self.BACKOFF_FACTOR ** (attempt - 1)
        u = _stable_uniform(self.seed, key, attempt)
        return min(raw * (1.0 + self.JITTER * u), self.max_delay_s)

    def delay_within(self, attempt: int, now: float, deadline_s: float,
                     key: str) -> float:
        """Deadline-aware jittered backoff: the :meth:`delay` for
        ``attempt``, clamped so the retry fires no later than
        ``deadline_s`` (absolute, same clock as ``now``).

        Serving-plane retries use this instead of the raw schedule: a
        request with 80 ms of budget left must not sleep 200 ms of
        backoff — better to retry immediately-ish and be honest about
        the deadline miss than to manufacture one.  Returns 0 when the
        deadline has already passed (retry at once; the miss is already
        a fact).
        """
        return max(0.0, min(self.delay(attempt, key), deadline_s - now))


#: Retry tokens earned per admitted request (the Google-SRE retry budget).
BUDGET_RATIO = 0.2
#: Most tokens the budget holds.
BUDGET_BURST = 50.0
#: Tokens the budget starts with.
BUDGET_FLOOR = 5.0


class RetryBudget:
    """A global cap keeping retries from amplifying an outage.

    The classic failure mode: capacity drops, every failed request
    retries, offered load doubles, the survivors drown — the retry storm
    finishes what the outage started.  The budget (the Google SRE
    pattern) makes retries a *fraction* of real traffic instead: each
    admitted request earns :data:`BUDGET_RATIO` retry tokens (bounded by
    :data:`BUDGET_BURST`); a retry spends one.  ``try_spend`` refuses once the pool
    is dry — callers convert the refused retry into a shed or skip the
    optional work (a hedge).  ``spend_forced`` is for retries that are
    mandatory for correctness (failover of already-admitted requests can
    never be dropped): it may push the balance negative, and a negative
    balance is the overload signal the brownout controller keys on.

    Deterministic: plain arithmetic, no clock, no randomness.
    """

    def __init__(self) -> None:
        self.tokens = BUDGET_FLOOR
        self.spent = 0.0
        self.refused = 0
        self.forced_overdraft = 0.0

    @property
    def in_overdraft(self) -> bool:
        """True while forced retries have outrun the earned budget."""
        return self.tokens < 0.0

    def note_request(self) -> None:
        """Earn budget: one admitted request's worth of retry tokens."""
        self.tokens = min(BUDGET_BURST, self.tokens + BUDGET_RATIO)

    def try_spend(self) -> bool:
        """Spend one token if the pool covers it (optional work)."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1.0
            return True
        self.refused += 1
        return False

    def spend_forced(self, n: float = 1.0) -> None:
        """Spend unconditionally (mandatory failover); may go negative."""
        self.tokens -= n
        self.spent += n
        if self.tokens < 0:
            self.forced_overdraft = max(self.forced_overdraft,
                                        -self.tokens)
