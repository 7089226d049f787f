"""SLO accounting: goodput, deadline misses, latency tails.

The provisioning question the paper's real-time workload poses ("does this
configuration hold p99 under the deadline at this rate?") is answered
here.  All percentile math comes from :mod:`repro.core.stats` — the same
implementation the Fig. 3 A streaming model uses — so a "p99" from the
serving engine and one from the streaming bench are always the same
computation.

``ServingMetrics`` is the engine's mutable ledger.  The per-request counts
are plain ints, the latencies one list and the per-module busy seconds one
dict; :meth:`ServingMetrics.publish` adds their change since the last
publish to the labeled families of a
:class:`~repro.telemetry.MetricsRegistry`
(``serving_requests_total{outcome=...}``, ``serving_latency_seconds``,
``serving_module_busy_seconds{module=...}``), so the serving report, the
Prometheus dump and the unified trace summary all show the same numbers
(DESIGN §17).  Every counter obeys one conservation law the tests assert:

    offered = admitted + rate_limited + shed
    admitted = completed            (after drain — failover loses nothing)

and the residual of that law is published explicitly as the
``serving_invariant_violations`` gauge (kept at zero by construction;
CI fails any run where it is not).  ``goodput`` counts only admitted
requests completed *within* their deadline: requests the system finished
late are throughput, not goodput.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.core.stats import LatencySummary, percentile, summarize_latencies
from repro.serving.request import Request
from repro.telemetry import MetricsRegistry

#: Each hot count and the ``(family, labels)`` it is published to.
_PUBLISHED = {
    "offered": ("serving_requests_total", (("outcome", "offered"),)),
    "admitted": ("serving_requests_total", (("outcome", "admitted"),)),
    "rate_limited": ("serving_requests_total",
                     (("outcome", "rate_limited"),)),
    "shed": ("serving_requests_total", (("outcome", "shed"),)),
    "completed": ("serving_requests_total", (("outcome", "completed"),)),
    "deadline_misses": ("serving_deadline_misses_total", ()),
    "batches": ("serving_batches_total", ()),
    "batched_requests": ("serving_batched_requests_total", ()),
    "failovers": ("serving_failovers_total", ()),
    "requests_failed_over": ("serving_requests_failed_over_total", ()),
}


class ServingMetrics:
    """The engine's running ledger of one serving run.

    Every count belongs to this run alone and reaches the registry at
    :meth:`publish`; the rare defense counts (hedges, breaker and brownout
    transitions) get a family only once something was recorded.
    Constructing one without an explicit registry creates a private
    enabled registry.  Passing the capture registry (as ``repro trace
    serve`` does) folds the serving numbers into the run-wide metrics
    dump; engines sharing one registry publish their sum.
    """

    def __init__(self, duration_s: float,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.duration_s = duration_s
        self.registry = registry if registry is not None else MetricsRegistry()
        self.offered = self.admitted = self.rate_limited = self.shed = 0
        self.completed = self.deadline_misses = 0
        self.batches = self.batched_requests = 0
        self.failovers = self.requests_failed_over = 0
        self.latencies_s: list[float] = []
        self.module_busy_s: dict[str, float] = {}
        self.hedges_issued = self.duplicate_responses = 0
        self.hedges_primary_won = self.hedges_backup_won = 0
        self.hedge_wasted_s = 0.0
        #: Breaker transitions by target state, brownout ones by level.
        self.breaker_transitions_to: dict[str, int] = defaultdict(int)
        self.brownout_transitions_to: dict[int, int] = defaultdict(int)
        self._latency = self.registry.histogram("serving_latency_seconds")
        self._violations = self.registry.gauge("serving_invariant_violations")
        #: What the last :meth:`publish` saw, so the next adds only news.
        self._published: dict[tuple, float] = {}
        self._published_latencies = 0

    # -- recording -----------------------------------------------------------
    def record_rejection(self, reason: str) -> None:
        self.offered += 1
        if reason == "rate-limited":
            self.rate_limited += 1
        elif reason == "shed":
            self.shed += 1
        else:
            raise ValueError(f"unknown rejection reason {reason!r}")

    def record_admission(self) -> None:
        self.offered += 1
        self.admitted += 1

    def record_completion(self, req: Request, now: float) -> float:
        """Complete one admitted request; returns its latency."""
        latency = now - req.arrival_s
        self.completed += 1
        self.latencies_s.append(latency)
        if now > req.deadline_s + 1e-12:
            self.deadline_misses += 1
        return latency

    def record_batch(self, n_requests: int, module_key: str,
                     busy_s: float) -> None:
        self.batches += 1
        self.batched_requests += n_requests
        busy = self.module_busy_s
        busy[module_key] = busy.get(module_key, 0.0) + busy_s

    def record_failover(self, n_drained: int) -> None:
        self.failovers += 1
        self.requests_failed_over += n_drained

    def publish(self) -> None:
        """Add each count's change since the last publish to its registry
        family, and the new latencies in one bulk step, in completion
        order.  Publishing again without new records adds nothing."""
        for name, labels, value in self._rows():
            last = self._published.get((name, labels), 0)
            self.registry.counter(name, **dict(labels)).inc(value - last)
            self._published[name, labels] = value
        self._latency.observe_many(
            self.latencies_s[self._published_latencies:])
        self._published_latencies = len(self.latencies_s)

    def _rows(self) -> list[tuple[str, tuple, float]]:
        """``(family, labels, value)`` of every count.  Hot counts always
        have a row; busy seconds and the rare defense counts only once
        recorded, so an undefended dump has no defense family."""
        rows = [(name, labels, getattr(self, attr))
                for attr, (name, labels) in _PUBLISHED.items()]
        rows += [row for row in (
            ("serving_hedges_total", (), self.hedges_issued),
            ("serving_hedge_wins_total", (("side", "primary"),),
             self.hedges_primary_won),
            ("serving_hedge_wins_total", (("side", "backup"),),
             self.hedges_backup_won),
            ("serving_duplicate_responses_total", (),
             self.duplicate_responses)) if row[2]]
        if self.hedges_primary_won or self.hedges_backup_won:
            rows.append(("serving_hedge_wasted_seconds", (),
                         self.hedge_wasted_s))
        for name, key, tally in (
                ("serving_module_busy_seconds", "module", self.module_busy_s),
                ("serving_breaker_transitions_total", "to",
                 self.breaker_transitions_to),
                ("serving_brownout_transitions_total", "to",
                 self.brownout_transitions_to)):
            rows += [(name, ((key, str(k)),), v) for k, v in tally.items()]
        return rows

    # -- defense accounting --------------------------------------------------
    def record_hedge_issued(self) -> None:
        self.hedges_issued += 1

    def record_hedge_resolved(self, backup_won: bool,
                              wasted_s: float) -> None:
        """One hedged batch resolved: a side won, the duplicate was
        cancelled after ``wasted_s`` seconds of thrown-away compute."""
        if backup_won:
            self.hedges_backup_won += 1
        else:
            self.hedges_primary_won += 1
        self.hedge_wasted_s += wasted_s

    def record_duplicate_response(self) -> None:
        """A response arrived for an already-completed hedged batch."""
        self.duplicate_responses += 1

    def record_breaker_transition(self, to_state: str) -> None:
        self.breaker_transitions_to[to_state] += 1

    def record_brownout_transition(self, to_level: int) -> None:
        self.brownout_transitions_to[to_level] += 1

    # -- headline numbers ----------------------------------------------------
    @property
    def on_time(self) -> int:
        return self.completed - self.deadline_misses

    @property
    def goodput_per_s(self) -> float:
        """On-time completions per offered second."""
        return self.on_time / self.duration_s

    @property
    def deadline_miss_rate(self) -> float:
        return self.deadline_misses / self.completed if self.completed else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def percentile(self, q: float) -> float:
        return percentile(self.latencies_s, q)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def latency_summary(self) -> LatencySummary:
        return summarize_latencies(self.latencies_s)

    def meets_slo(self, deadline_budget_s: float,
                  quantile: float = 99.0) -> bool:
        """Does the latency quantile sit within the per-request budget?"""
        return self.percentile(quantile) <= deadline_budget_s

    # -- conservation --------------------------------------------------------
    @property
    def invariant_violations(self) -> int:
        """Total accounting leak across both conservation identities.

        Zero by construction; exported as the
        ``serving_invariant_violations`` gauge so a leak is visible in
        every metrics dump, not only inside the test suite.
        """
        arrival_leak = abs(self.offered
                           - (self.admitted + self.rate_limited + self.shed))
        completion_leak = abs(self.completed - self.admitted)
        return arrival_leak + completion_leak

    def check_conservation(self) -> None:
        """Publish the run's counts and the invariant gauge; raise on a
        leak."""
        self.publish()
        self._violations.set(self.invariant_violations)
        if self.offered != self.admitted + self.rate_limited + self.shed:
            raise AssertionError(
                f"arrival accounting leak: offered={self.offered} != "
                f"{self.admitted}+{self.rate_limited}+{self.shed}")
        if self.completed != self.admitted:
            raise AssertionError(
                f"completion leak: admitted={self.admitted} but "
                f"completed={self.completed} — requests were lost")
