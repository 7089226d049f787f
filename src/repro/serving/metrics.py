"""SLO accounting: goodput, deadline misses, latency tails.

The provisioning question the paper's real-time workload poses ("does this
configuration hold p99 under the deadline at this rate?") is answered
here.  All percentile math comes from :mod:`repro.core.stats` — the same
implementation the Fig. 3 A streaming model uses — so a "p99" from the
serving engine and one from the streaming bench are always the same
computation.

``ServingMetrics`` is the engine's mutable ledger; since the telemetry
refactor it is a *view over a shared*
:class:`~repro.telemetry.MetricsRegistry`: every count lives in a labeled
family (``serving_requests_total{outcome=...}``,
``serving_latency_seconds``, ``serving_module_busy_seconds{module=...}``)
so the serving report, the Prometheus dump and the unified trace summary
all draw from one registry.  Every counter obeys one conservation law the
tests assert:

    offered = admitted + rate_limited + shed
    admitted = completed            (after drain — failover loses nothing)

and the residual of that law is published explicitly as the
``serving_invariant_violations`` gauge (kept at zero by construction;
CI fails any run where it is not).  ``goodput`` counts only admitted
requests completed *within* their deadline: requests the system finished
late are throughput, not goodput.
"""

from __future__ import annotations

from typing import Optional

from repro.core.stats import LatencySummary, percentile, summarize_latencies
from repro.serving.request import Request
from repro.telemetry import MetricsRegistry


class ServingMetrics:
    """The engine's running ledger of one serving run, registry-backed.

    Constructing one without an explicit registry creates a private
    enabled registry, so independent engine runs never share counters —
    the property behind byte-identical same-seed reports.  Passing the
    capture registry (as ``repro trace serve`` does) folds the serving
    numbers into the run-wide metrics dump.
    """

    def __init__(self, duration_s: float,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.duration_s = duration_s
        self.registry = registry if registry is not None else MetricsRegistry()
        reg = self.registry
        self._offered = reg.counter("serving_requests_total",
                                    outcome="offered")
        self._admitted = reg.counter("serving_requests_total",
                                     outcome="admitted")
        self._rate_limited = reg.counter("serving_requests_total",
                                         outcome="rate_limited")
        self._shed = reg.counter("serving_requests_total", outcome="shed")
        self._completed = reg.counter("serving_requests_total",
                                      outcome="completed")
        self._deadline_misses = reg.counter("serving_deadline_misses_total")
        self._latency = reg.histogram("serving_latency_seconds")
        self._batches = reg.counter("serving_batches_total")
        self._batched_requests = reg.counter("serving_batched_requests_total")
        self._failovers = reg.counter("serving_failovers_total")
        self._failed_over = reg.counter("serving_requests_failed_over_total")
        self._violations = reg.gauge("serving_invariant_violations")

    # -- recording -----------------------------------------------------------
    def record_rejection(self, reason: str) -> None:
        self._offered.inc()
        if reason == "rate-limited":
            self._rate_limited.inc()
        elif reason == "shed":
            self._shed.inc()
        else:
            raise ValueError(f"unknown rejection reason {reason!r}")

    def record_admission(self) -> None:
        self._offered.inc()
        self._admitted.inc()

    def record_completion(self, req: Request, now: float) -> float:
        """Complete one admitted request; returns its latency."""
        latency = now - req.arrival_s
        self._completed.inc()
        self._latency.observe(latency)
        if now > req.deadline_s + 1e-12:
            self._deadline_misses.inc()
        return latency

    def record_batch(self, n_requests: int, module_key: str,
                     busy_s: float) -> None:
        self._batches.inc()
        self._batched_requests.inc(n_requests)
        self.registry.counter("serving_module_busy_seconds",
                              module=module_key).inc(busy_s)

    def record_failover(self, n_drained: int) -> None:
        self._failovers.inc()
        self._failed_over.inc(n_drained)

    # -- defense accounting --------------------------------------------------
    # These families are created lazily at first record, so a run without
    # defenses enabled produces exactly the registry dump it always did.
    def record_hedge_issued(self) -> None:
        self.registry.counter("serving_hedges_total").inc()

    def record_hedge_resolved(self, backup_won: bool,
                              wasted_s: float) -> None:
        """One hedged batch resolved: a side won, the duplicate was
        cancelled after ``wasted_s`` seconds of thrown-away compute."""
        side = "backup" if backup_won else "primary"
        self.registry.counter("serving_hedge_wins_total", side=side).inc()
        self.registry.counter("serving_hedge_wasted_seconds").inc(wasted_s)

    def record_duplicate_response(self) -> None:
        """A response arrived for an already-completed hedged batch."""
        self.registry.counter("serving_duplicate_responses_total").inc()

    def record_breaker_transition(self, to_state: str) -> None:
        self.registry.counter("serving_breaker_transitions_total",
                              to=to_state).inc()

    def record_brownout_transition(self, to_level: int) -> None:
        self.registry.counter("serving_brownout_transitions_total",
                              to=str(to_level)).inc()

    def _family_total(self, name: str) -> float:
        return sum(inst.value for _, inst in self.registry.members(name))

    # -- ledger counts (registry views) --------------------------------------
    @property
    def offered(self) -> int:
        return int(self._offered.value)

    @property
    def admitted(self) -> int:
        return int(self._admitted.value)

    @property
    def rate_limited(self) -> int:
        return int(self._rate_limited.value)

    @property
    def shed(self) -> int:
        return int(self._shed.value)

    @property
    def completed(self) -> int:
        return int(self._completed.value)

    @property
    def deadline_misses(self) -> int:
        return int(self._deadline_misses.value)

    @property
    def latencies_s(self) -> list[float]:
        return self._latency.values

    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def batched_requests(self) -> int:
        return int(self._batched_requests.value)

    @property
    def failovers(self) -> int:
        return int(self._failovers.value)

    @property
    def requests_failed_over(self) -> int:
        return int(self._failed_over.value)

    @property
    def hedges_issued(self) -> int:
        return int(self._family_total("serving_hedges_total"))

    @property
    def hedges_backup_won(self) -> int:
        return int(self.registry.value("serving_hedge_wins_total",
                                       side="backup"))

    @property
    def hedge_wasted_s(self) -> float:
        return self._family_total("serving_hedge_wasted_seconds")

    @property
    def breaker_transitions(self) -> int:
        return int(self._family_total("serving_breaker_transitions_total"))

    @property
    def brownout_transitions(self) -> int:
        return int(self._family_total("serving_brownout_transitions_total"))

    @property
    def module_busy_s(self) -> dict[str, float]:
        return {dict(key)["module"]: counter.value
                for key, counter in
                self.registry.members("serving_module_busy_seconds")}

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
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

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
        """Publish the invariant gauge and raise on a leak."""
        self._violations.set(self.invariant_violations)
        if self.offered != self.admitted + self.rate_limited + self.shed:
            raise AssertionError(
                f"arrival accounting leak: offered={self.offered} != "
                f"{self.admitted}+{self.rate_limited}+{self.shed}")
        if self.completed != self.admitted:
            raise AssertionError(
                f"completion leak: admitted={self.admitted} but "
                f"completed={self.completed} — requests were lost")
