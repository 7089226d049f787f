"""Admission control: token-bucket rate limiting and load shedding.

A serving tier that admits everything during overload serves *nobody*
within the SLO — queues grow without bound and every request misses its
deadline.  Production platforms (the IBM Deep Learning Service gateway
pattern) put two gates in front of the queue instead:

* a **token bucket** caps the sustained admission rate while allowing
  short bursts up to the bucket depth, and
* a **queue-depth shed** drops requests once the backlog exceeds what the
  replicas could clear within a latency budget anyway.

Rejected requests are *not* failures of the serving engine — they are
explicit, counted decisions (the goodput report keeps admitted and
rejected strictly separate, and the failover drill guarantees completion
only for requests that were actually admitted).

Both gates are deterministic: the bucket refills lazily from elapsed
simulated time, so the same trace always admits the same requests.
"""

from __future__ import annotations

from dataclasses import dataclass


class TokenBucket:
    """A classic token bucket on the simulated clock.

    ``rate_per_s`` tokens accrue per simulated second up to ``burst``
    capacity; each admitted request spends one token.  A non-positive
    ``rate_per_s`` disables the gate (always admits).
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s > 0 and burst < 1:
            raise ValueError("burst capacity must hold at least one token")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def try_take(self, now: float) -> bool:
        """Spend one token if available at simulated time ``now``."""
        if self.rate_per_s <= 0:
            return True
        if now < self._last:
            raise ValueError("token bucket clock ran backwards")
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate_per_s)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class AdmissionPolicy:
    """The gate configuration in front of the request queue.

    ``rate_limit_per_s <= 0`` disables rate limiting;
    ``max_queue_depth <= 0`` disables shedding.
    """

    rate_limit_per_s: float = 0.0
    burst: float = 50.0
    max_queue_depth: int = 0

    def bucket(self) -> TokenBucket:
        return TokenBucket(self.rate_limit_per_s, self.burst)


@dataclass(frozen=True)
class AdmissionDecision:
    """Why a request was turned away (or not)."""

    admitted: bool
    reason: str = ""               # "" | "rate-limited" | "shed"
    #: Shed sub-reason ("queue-depth" | "brownout-bronze" |
    #: "brownout-uncached") — telemetry detail; the metrics ledger folds
    #: every variant into the one ``shed`` counter so the conservation
    #: law (offered = admitted + rate_limited + shed) is untouched.
    detail: str = ""


class AdmissionController:
    """Stateful admission gate the engine consults per arrival."""

    #: The one (frozen) decision every admitted arrival shares.
    _ADMITTED = AdmissionDecision(True)

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._bucket = policy.bucket()
        self.n_rate_limited = 0
        self.n_shed = 0

    def decide(
        self,
        now: float,
        queue_depth: int,
        brownout_level: int = 0,
        tier: str = "gold",
        cacheable: bool = True,
    ) -> AdmissionDecision:
        """Gate one arrival.

        The three trailing arguments are the brownout controller's
        degradation signals (see
        :class:`~repro.serving.defense.BrownoutLevel`): at level >= 2 the
        bronze tier is shed, at level 3 only requests servable from the
        cache (``cacheable``) are admitted.  Defaults reproduce the
        pre-defense gate exactly.
        """
        if not self._bucket.try_take(now):
            self.n_rate_limited += 1
            return AdmissionDecision(False, "rate-limited")
        if 0 < self.policy.max_queue_depth <= queue_depth:
            self.n_shed += 1
            return AdmissionDecision(False, "shed", "queue-depth")
        if brownout_level >= 2 and tier == "bronze":
            self.n_shed += 1
            return AdmissionDecision(False, "shed", "brownout-bronze")
        if brownout_level >= 3 and not cacheable:
            self.n_shed += 1
            return AdmissionDecision(False, "shed", "brownout-uncached")
        return self._ADMITTED
