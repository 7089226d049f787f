"""Replica pool and module-aware autoscaling.

A *replica* is a long-lived inference server occupying nodes on one MSA
module.  Placement goes through the batch scheduler's matchmaking
(:func:`repro.core.scheduler.place_standalone`), so replicas land exactly
where the paper's CM-train / ESB-infer pattern says they should: the
booster first, the DAM when it is equally fast and the booster is full,
and the CM only as slow overflow capacity.  Suspect (recently crashed)
nodes are avoided the same way the batch scheduler avoids them.

The autoscaler closes the loop on two signals a production gateway
actually has — current queue depth and the latency tail of the *recent*
window — and scales the pool between ``min_replicas`` and
``max_replicas``.  Decisions are pure functions of those signals, so the
whole control loop replays deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.core.hardware import NodeSpec
from repro.core.scheduler import place_standalone
from repro.core.stats import percentile
from repro.core.system import MSASystem
from repro.distributed.perfmodel import InferencePerfModel
from repro.serving.request import Request
from repro.simnet.events import Event


@dataclass
class InflightBatch:
    """One micro-batch being computed on a replica."""

    requests: list[Request]
    start: float
    done_evt: Optional[Event] = None
    #: Hedge group this batch belongs to (None for unhedged batches);
    #: opaque to the pool — the engine's hedging logic owns its type.
    group: Optional[object] = None


@dataclass
class Replica:
    """One placed inference server."""

    rid: int
    module_key: str
    nodes: tuple[int, ...]
    node_spec: NodeSpec
    sample_time_s: float           # marginal per-sample forward time
    started_at: float
    up: bool = True
    inflight: Optional[InflightBatch] = None
    busy_s: float = 0.0

    @property
    def idle(self) -> bool:
        return self.up and self.inflight is None

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """The ``"module:node"`` fabric labels partition cuts are over."""
        return tuple(f"{self.module_key}:{n}" for n in self.nodes)


class ReplicaPool:
    """Placement, retirement and crash handling for serving replicas."""

    def __init__(
        self,
        system: MSASystem,
        perf: InferencePerfModel,
        nodes_per_replica: int = 1,
        reference_batch_samples: int = 8,
    ) -> None:
        if nodes_per_replica < 1:
            raise ValueError("nodes_per_replica must be >= 1")
        self.system = system
        self.perf = perf
        self.nodes_per_replica = nodes_per_replica
        self._phase = perf.as_phase(reference_batch_samples)
        self.replicas: dict[int, Replica] = {}
        #: ``replicas`` fastest module first; place/retire/crash re-sort it.
        self._dispatch_order: list[Replica] = []
        self.suspect: dict[str, set[int]] = {}
        self._next_id = 0
        #: Node-seconds each module spent hosting replicas (billing view).
        self.module_lifetime_s: dict[str, float] = {}
        #: Placement history: (time, replica id, module key).
        self.placements: list[tuple[float, int, str]] = []

    # -- inventory -----------------------------------------------------------
    @property
    def n_up(self) -> int:
        return sum(1 for r in self.replicas.values() if r.up)

    def idle_replicas(self) -> list[Replica]:
        """Idle replicas, fastest module first (dispatch preference)."""
        return [r for r in self._dispatch_order if r.idle]

    def _resort(self) -> None:
        self._dispatch_order = sorted(
            self.replicas.values(), key=lambda r: (r.sample_time_s, r.rid))

    def find(self, module_key: str, node: int) -> Optional[Replica]:
        for r in self.replicas.values():
            if r.up and r.module_key == module_key and node in r.nodes:
                return r
        return None

    # -- lifecycle -----------------------------------------------------------
    def place(self, now: float,
              avoid: Optional[dict[str, set[int]]] = None) -> Optional[Replica]:
        """Start one replica on the best module with capacity, or ``None``.

        ``avoid`` merges extra per-module node sets into the crash-derived
        suspects for this one placement — the health detector's suspicion
        (gray or partitioned nodes) flows in here without being recorded
        as a permanent crash suspicion.
        """
        suspect = self.suspect
        if avoid:
            suspect = {k: set(v) for k, v in self.suspect.items()}
            for key, nodes in avoid.items():
                suspect.setdefault(key, set()).update(nodes)
        placed = place_standalone(self.system, self._phase,
                                  self.nodes_per_replica,
                                  suspect=suspect)
        if placed is None:
            return None
        key, nodes = placed
        spec = self.system.module(key).node_spec
        replica = Replica(
            rid=self._next_id,
            module_key=key,
            nodes=nodes,
            node_spec=spec,
            sample_time_s=self.perf.sample_time(spec),
            started_at=now,
        )
        self._next_id += 1
        self.replicas[replica.rid] = replica
        self._resort()
        self.placements.append((now, replica.rid, key))
        return replica

    def batch_time(self, replica: Replica, batch_samples: int) -> float:
        return self.perf.batch_time(batch_samples, replica.node_spec,
                                    self.nodes_per_replica)

    def _account_lifetime(self, replica: Replica, now: float) -> None:
        span = (now - replica.started_at) * len(replica.nodes)
        self.module_lifetime_s[replica.module_key] = (
            self.module_lifetime_s.get(replica.module_key, 0.0) + span)

    def retire(self, replica: Replica, now: float) -> None:
        """Graceful scale-down of an *idle* replica."""
        if replica.inflight is not None:
            raise ValueError("cannot retire a busy replica — drain first")
        self._account_lifetime(replica, now)
        self.system.module(replica.module_key).release(list(replica.nodes))
        del self.replicas[replica.rid]
        self._resort()

    def crash(self, replica: Replica, node: int, now: float) -> list[Request]:
        """A node under ``replica`` died; tear it down and drain its work.

        The caller has already marked the node down on the module.  Returns
        the in-flight requests to re-queue (empty if the replica was idle).
        ``release`` skips down nodes, so passing the full node list is safe.
        """
        replica.up = False
        self._account_lifetime(replica, now)
        self.suspect.setdefault(replica.module_key, set()).add(node)
        self.system.module(replica.module_key).release(
            [n for n in replica.nodes if n != node])
        drained: list[Request] = []
        if replica.inflight is not None:
            if replica.inflight.done_evt is not None:
                replica.inflight.done_evt.cancel()
            drained = replica.inflight.requests
            replica.inflight = None
        del self.replicas[replica.rid]
        self._resort()
        return drained

    def retirement_candidate(self) -> Optional[Replica]:
        """Which idle replica to scale down: the slowest-placed, newest."""
        return next((r for r in reversed(self._dispatch_order) if r.idle),
                    None)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling bounds and thresholds."""

    enabled: bool = True
    min_replicas: int = 1
    max_replicas: int = 8
    interval_s: float = 1.0
    #: Scale up when queue depth exceeds this many requests per up replica…
    queue_high_per_replica: float = 4.0
    #: …or when the recent-window p99 exceeds this fraction of the SLO.
    p99_high_fraction: float = 0.9
    #: Scale down only when the queue is empty and window p95 is this low.
    p95_low_fraction: float = 0.25
    #: Replicas added per decision (bounded ramp, avoids thrash).
    max_step_up: int = 2

    def __post_init__(self) -> None:
        if self.min_replicas < 1 or self.max_replicas < self.min_replicas:
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.interval_s <= 0:
            raise ValueError("interval must be positive")
        if self.max_step_up < 1:
            raise ValueError("max_step_up must be >= 1")


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision that changed the pool."""

    time: float
    delta: int
    n_up_after: int
    reason: str


@dataclass
class Autoscaler:
    """Queue-depth / latency-tail feedback controller over the pool."""

    config: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    events: list[ScaleEvent] = field(default_factory=list)

    def decide(
        self,
        now: float,
        n_up: int,
        queue_depth: int,
        window_latencies: list[float],
        slo_deadline_s: float,
    ) -> tuple[int, str]:
        """``(delta, reason)`` — positive to add replicas, negative to drop one."""
        cfg = self.config
        if n_up < cfg.min_replicas:
            return cfg.min_replicas - n_up, "below-min"
        deep_queue = queue_depth > cfg.queue_high_per_replica * max(n_up, 1)
        tail_high = False
        if window_latencies:
            tail_high = (percentile(window_latencies, 99)
                         > cfg.p99_high_fraction * slo_deadline_s)
        if (deep_queue or tail_high) and n_up < cfg.max_replicas:
            want = min(cfg.max_step_up, cfg.max_replicas - n_up)
            return want, "queue-depth" if deep_queue else "p99"
        if (queue_depth == 0 and n_up > cfg.min_replicas
                and window_latencies
                and percentile(window_latencies, 95)
                < cfg.p95_low_fraction * slo_deadline_s):
            return -1, "idle"
        return 0, ""

    def note(self, time: float, delta: int, n_up_after: int,
             reason: str) -> None:
        self.events.append(ScaleEvent(time, delta, n_up_after, reason))
