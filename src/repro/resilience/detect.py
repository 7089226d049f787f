"""Phi-accrual failure detection on the simulated clock.

Crisp failures (a node crash event) announce themselves; the failures
that dominate production serving are *ambiguous* — a partitioned replica
stops answering, a gray-failed one answers probes only sometimes while
serving 10x slow.  Binary timeout detectors handle these badly: too
short and a healthy node flaps in and out of the pool, too long and a
dead one keeps taking traffic.

The phi-accrual detector (Hayashibara et al., SRDS'04 — the design
behind Cassandra's and Akka's membership) replaces the binary verdict
with a *suspicion level*: from the observed heartbeat inter-arrival
history it computes

    phi(now) = -log10( P(a heartbeat gap longer than now - t_last) )

under an exponential gap model, so phi grows linearly with silence and
each unit of phi is one decade of confidence.  Consumers pick their own
thresholds: the scheduler can avoid placing on nodes above phi 3 while
the circuit breaker only opens at phi 8.

Everything is deterministic: heartbeats are instants on the simulated
clock, the window is a plain deque, and there is no wall-clock anywhere
— the same event schedule always produces the same suspicion levels.

:class:`ComponentHealth` is the companion report type for subsystems
whose health is state, not heartbeats (the parallel filesystem's failed
OSTs): one structured record instead of a bare bool, published through
the telemetry registry so drills can reconcile it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable, Optional

LN10 = math.log(10.0)

#: Suspicion assigned once the gap model would underflow (certain death).
PHI_CEILING = 1e3


#: Modelled heartbeat gap until a window of real intervals exists (the
#: simulation-start edge case: a node that never heartbeats must still
#: grow suspicious against *some* expectation).
EXPECTED_INTERVAL_S = 0.05
#: Heartbeat intervals kept per endpoint.
WINDOW = 16
#: Floor on the modelled mean, so a burst of rapid heartbeats cannot make
#: the detector hair-triggered (the flapping edge case).
MIN_INTERVAL_S = 1e-3
#: Phi above which :meth:`PhiAccrualDetector.suspect` fires.
THRESHOLD = 6.0


@dataclass
class _Endpoint:
    """Heartbeat history of one monitored endpoint."""

    registered_at: float
    last_beat: Optional[float] = None
    intervals: deque = field(default_factory=deque)


class PhiAccrualDetector:
    """Per-endpoint suspicion levels from heartbeat instants.

    >>> det = PhiAccrualDetector()
    >>> det.register("r0", now=0.0)
    >>> for t in (0.05, 0.10, 0.15):
    ...     det.heartbeat("r0", t)
    >>> det.phi("r0", 0.2) < det.phi("r0", 0.5)
    True
    """

    def __init__(self) -> None:
        self._endpoints: dict[Hashable, _Endpoint] = {}
        #: (time, key, phi) rows for every suspect transition (telemetry).
        self.suspicion_log: list[tuple[float, Hashable, float]] = []
        self._suspected: set[Hashable] = set()

    # -- feeding --------------------------------------------------------------
    def register(self, key: Hashable, now: float) -> None:
        """Start monitoring ``key``; idempotent."""
        self._endpoints.setdefault(key, _Endpoint(registered_at=now))

    def forget(self, key: Hashable) -> None:
        """Stop monitoring ``key`` (replica retired/crashed on purpose)."""
        self._endpoints.pop(key, None)
        self._suspected.discard(key)

    def heartbeat(self, key: Hashable, now: float) -> None:
        """One successful probe answer from ``key`` at simulated ``now``."""
        ep = self._endpoints.setdefault(key, _Endpoint(registered_at=now))
        if ep.last_beat is not None:
            gap = now - ep.last_beat
            if gap < 0:
                raise ValueError("heartbeat clock ran backwards")
            ep.intervals.append(gap)
            while len(ep.intervals) > WINDOW:
                ep.intervals.popleft()
        ep.last_beat = now
        self._suspected.discard(key)

    # -- reading --------------------------------------------------------------
    def mean_interval(self, key: Hashable) -> float:
        """The modelled heartbeat gap for ``key`` (floored, bootstrapped)."""
        ep = self._endpoints[key]
        if ep.intervals:
            mean = sum(ep.intervals) / len(ep.intervals)
        else:
            # Bootstrap: no observed gap yet (start of simulation, or a
            # single beat so far) — fall back on the declared expectation.
            mean = EXPECTED_INTERVAL_S
        return max(mean, MIN_INTERVAL_S)

    def phi(self, key: Hashable, now: float) -> float:
        """Suspicion level of ``key`` at ``now`` (0 = just heard from it).

        Exponential gap model: ``P(gap > x) = exp(-x / mean)`` so
        ``phi = x / (mean * ln 10)`` — linear in silence, one decade of
        confidence per unit.
        """
        ep = self._endpoints.get(key)
        if ep is None:
            raise KeyError(f"endpoint {key!r} is not monitored")
        anchor = ep.last_beat if ep.last_beat is not None else ep.registered_at
        silence = now - anchor
        if silence <= 0:
            return 0.0
        return min(silence / (self.mean_interval(key) * LN10), PHI_CEILING)

    def suspect(self, key: Hashable, now: float) -> bool:
        """Is ``key``'s suspicion above :data:`THRESHOLD`?"""
        level = self.phi(key, now)
        is_suspect = level > THRESHOLD
        if is_suspect and key not in self._suspected:
            self._suspected.add(key)
            self.suspicion_log.append((now, key, level))
        elif not is_suspect:
            self._suspected.discard(key)
        return is_suspect


@dataclass(frozen=True)
class ComponentHealth:
    """Structured health of a stateful component (storage, fabric, ...).

    Replaces bare-bool ``healthy`` flags: ``ok`` is the old bool,
    ``degraded`` marks the gray zone (still serving, slower), ``detail``
    says why, and ``suspicion`` carries a phi-compatible level so
    heartbeat-driven and state-driven health land on one scale.
    """

    component: str
    ok: bool
    degraded: bool = False
    detail: str = ""
    suspicion: float = 0.0

    def publish(self, registry, now: float) -> None:
        """Export this report as gauges + a transition-friendly instant."""
        registry.gauge("component_health_ok",
                       component=self.component).set(1.0 if self.ok else 0.0)
        registry.gauge("component_health_degraded",
                       component=self.component).set(
                           1.0 if self.degraded else 0.0)
        registry.gauge("health_suspicion_phi", component=self.component,
                       endpoint="state").set(self.suspicion)
