"""The online-serving engine: one discrete-event loop over all components.

The request path, end to end on the deterministic DES engine::

    trace ──> admission ──> cache ──> micro-batcher ──> replica pool
    (seeded    (token bucket  (LRU +     (size/timeout     (CM/ESB/DAM via
     arrivals)  + shedding)   coalesce)   triggers)         matchmaking)

plus two control loops: the **autoscaler** ticks on a fixed interval and
resizes the pool from queue depth and the recent latency tail, and the
**failover** path consumes :class:`~repro.resilience.faults.FaultInjector`
node crashes — a dead replica's in-flight batch is cancelled, its requests
re-queued at the head after a :class:`~repro.resilience.retry.RetryPolicy`
backoff, and a replacement replica is placed.  Admitted requests are never
lost; late ones are counted as deadline misses, honestly.

Everything is seeded and event-ordered, so two runs of the same config
produce byte-identical reports — asserted by the test suite.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro import telemetry
from repro.core.presets import small_msa_system
from repro.core.stats import slide_sorted
from repro.core.system import MSASystem
from repro.distributed.perfmodel import InferencePerfModel
from repro.resilience.detect import PhiAccrualDetector
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    partition_cut,
)
from repro.resilience.report import FailoverEvent
from repro.resilience.retry import RetryBudget, RetryPolicy, _stable_uniform
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.batcher import MAX_BATCH_REQUESTS, MicroBatcher
from repro.serving.cache import ResultCache
from repro.serving.defense import (
    BreakerState,
    BrownoutController,
    BrownoutLevel,
    CircuitBreaker,
    DefenseConfig,
    HedgePolicy,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.replicas import (
    Autoscaler,
    AutoscalerConfig,
    InflightBatch,
    Replica,
    ReplicaPool,
)
from repro.serving.request import Request, TraceConfig, generate_trace
from repro.simnet.events import Simulator
from repro.simnet.link import PartitionWindow

#: Backoff used when failing drained requests over to surviving replicas.
#: Much shorter than the batch scheduler's default (serving budgets are
#: sub-second), generous retry head-room so a drill can never exhaust it;
#: every failover clamps it to the drained requests' earliest deadline.
SERVING_RETRY = RetryPolicy(max_retries=64, base_delay_s=0.02,
                            max_delay_s=5.0)

#: Post-heal retransmission cost for a response held across a partition.
_PARTITION_RETRANSMIT_S = 1e-3

#: Simulated seconds a result-cache hit takes to answer.
CACHE_LOOKUP_S = 2.0e-4
#: Simulated seconds between autoscaler decisions.
AUTOSCALE_INTERVAL_S = 1.0
#: Simulated seconds between health-probe rounds of the defended engine.
HEARTBEAT_INTERVAL_S = 0.05


@dataclass
class HedgeGroup:
    """One hedged batch: the same requests in flight on several replicas.

    First response wins: the winner completes the requests, cancels the
    other side's completion event and accounts its elapsed compute as
    wasted hedge work.  A side that crashes simply leaves the group; the
    surviving side still carries the requests, so hedging never needs a
    requeue and admitted = completed is preserved structurally.
    """

    requests: list[Request]
    primary_rid: int
    sides: dict[int, Replica]
    #: When the backup was issued — duplicate work is accounted from here
    #: (before this instant only one copy ran, so nothing was duplicated).
    issued_at: float = 0.0
    completed: bool = False


@dataclass(frozen=True)
class ServingConfig:
    """Everything one serving run needs (besides the system + faults)."""

    trace: TraceConfig
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    initial_replicas: int = 2
    cache_capacity: int = 0            # 0 disables the result cache
    #: Partition/gray-failure defenses (disabled by default — enabling
    #: changes dispatch, admission and failover behaviour).
    defense: DefenseConfig = field(default_factory=DefenseConfig)

    def __post_init__(self) -> None:
        if self.initial_replicas < 1:
            raise ValueError("need at least one initial replica")


@dataclass
class ServingReport:
    """Outcome of one serving run — deterministic for a given config."""

    config: ServingConfig
    metrics: ServingMetrics
    cache_hits: int
    cache_misses: int
    cache_coalesced: int
    cache_hit_rate: float
    failover_events: list[FailoverEvent]
    scale_events: list
    peak_replicas: int
    final_replicas: int
    module_replica_seconds: dict[str, float]
    #: Batches actually computed: (replica id, request ids in batch order).
    batch_log: list[tuple[int, tuple[int, ...]]]
    #: Defense-layer outcome (all zero / empty unless defenses ran; the
    #: retry budget is also charged by an undefended failover).
    defense_enabled: bool = False
    partition_windows: int = 0
    gray_episodes: int = 0
    held_responses: int = 0
    suspicion_events: int = 0
    breaker_transitions: int = 0
    #: Brownout level after each transition, in order (0 = NORMAL).
    brownout_path: tuple[int, ...] = ()
    retry_budget_spent: float = 0.0
    retry_budget_refused: int = 0
    retry_budget_overdraft: float = 0.0

    @property
    def duplicate_work_ratio(self) -> float:
        """Wasted hedge seconds as a fraction of total replica busy time."""
        busy = sum(v for _, v in sorted(self.metrics.module_busy_s.items()))
        return self.metrics.hedge_wasted_s / busy if busy > 0 else 0.0

    @property
    def p99(self) -> float:
        return self.metrics.p99

    @property
    def goodput_per_s(self) -> float:
        return self.metrics.goodput_per_s

    def meets_slo(self) -> bool:
        return self.metrics.meets_slo(self.config.trace.slo_deadline_s)

    def to_text(self) -> str:
        """The canonical metrics report — byte-identical across same-seed runs."""
        m = self.metrics
        t = self.config.trace
        rows = [
            f"serving report ({t.pattern.value}, "
            f"{t.rate_per_s:g} req/s x {t.duration_s:g} s, "
            f"SLO {t.slo_deadline_s * 1e3:g} ms, seed {t.seed})",
            f"  offered          : {m.offered}",
            f"  admitted         : {m.admitted} "
            f"(rate-limited {m.rate_limited}, shed {m.shed})",
            f"  completed        : {m.completed}",
            f"  deadline misses  : {m.deadline_misses} "
            f"({m.deadline_miss_rate:.4f})",
            f"  goodput          : {m.goodput_per_s:.3f} req/s",
        ]
        if m.completed:
            s = m.latency_summary()
            rows += [
                f"  latency p50      : {s.p50_s * 1e3:.3f} ms",
                f"  latency p95      : {s.p95_s * 1e3:.3f} ms",
                f"  latency p99      : {s.p99_s * 1e3:.3f} ms",
                f"  latency max      : {s.max_s * 1e3:.3f} ms",
            ]
        rows += [
            f"  batches          : {m.batches} "
            f"(mean size {m.mean_batch_size:.2f})",
            f"  cache            : {self.cache_hits} hit / "
            f"{self.cache_coalesced} coalesced / {self.cache_misses} miss "
            f"(hit rate {self.cache_hit_rate:.4f})",
            f"  failovers        : {len(self.failover_events)} "
            f"({m.requests_failed_over} requests drained, 0 lost)",
            f"  scale events     : {len(self.scale_events)} "
            f"(peak {self.peak_replicas} replicas)",
        ]
        for key in sorted(self.module_replica_seconds):
            lifetime = self.module_replica_seconds[key]
            busy = m.module_busy_s.get(key, 0.0)
            util = busy / lifetime if lifetime > 0 else 0.0
            rows.append(f"  replicas[{key:<6}] : {lifetime:10.2f} node-s, "
                        f"util {util:6.1%}")
        if self.defense_enabled:
            path = "->".join(str(level) for level in
                             (0,) + self.brownout_path)
            rows += [
                f"  chaos            : {self.partition_windows} partition / "
                f"{self.gray_episodes} gray "
                f"({self.held_responses} responses held)",
                f"  detector         : {self.suspicion_events} suspicion "
                f"events, {self.breaker_transitions} breaker transitions",
                f"  hedging          : {m.hedges_issued} issued, "
                f"{m.hedges_backup_won} backup wins, "
                f"{m.hedge_wasted_s:.4f} s wasted "
                f"(ratio {self.duplicate_work_ratio:.4f})",
                f"  brownout         : path {path} "
                f"({len(self.brownout_path)} transitions)",
                f"  retry budget     : {self.retry_budget_spent:.1f} spent, "
                f"{self.retry_budget_refused} refused, "
                f"overdraft {self.retry_budget_overdraft:.1f}",
            ]
        return "\n".join(rows)


class ServingEngine:
    """Drives one :class:`ServingConfig` through the DES to a report."""

    def __init__(
        self,
        config: ServingConfig,
        system: Optional[MSASystem] = None,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[telemetry.MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.tracer = telemetry.get_tracer()
        self.system = system if system is not None else small_msa_system()
        self.perf = InferencePerfModel()
        self.sim = Simulator()
        self.requests = generate_trace(config.trace)
        self.batcher = MicroBatcher()
        self.admission = AdmissionController(config.admission)
        self.cache = ResultCache(config.cache_capacity)
        ref_batch = MAX_BATCH_REQUESTS * config.trace.samples_per_request
        self.pool = ReplicaPool(self.system, self.perf,
                                reference_batch_samples=ref_batch)
        self.autoscaler = Autoscaler(config.autoscaler)
        self.metrics = ServingMetrics(duration_s=config.trace.duration_s,
                                      registry=registry)
        self.retry = dataclasses.replace(SERVING_RETRY, seed=config.trace.seed)
        self.failover_events: list[FailoverEvent] = []
        self.batch_log: list[tuple[int, tuple[int, ...]]] = []
        self.peak_replicas = 0
        self._target_replicas = max(config.initial_replicas,
                                    config.autoscaler.min_replicas
                                    if config.autoscaler.enabled else 1)
        #: req_id -> Request for coalesced waiters parked on the cache.
        self._waiting: dict[int, Request] = {}
        #: req_id -> failover retry count (drives the backoff schedule).
        self._retries: dict[int, int] = {}
        self._window: list[float] = []
        self._ran = False
        # -- defense parts: always built; ``defended`` gates the sites where
        # -- behaviour differs (breakers stay empty when it is off) ---------
        d = config.defense
        self.defended = d.enabled
        self.detector = PhiAccrualDetector()
        self.breakers: dict[int, CircuitBreaker] = {}
        self.budget = RetryBudget()
        self.brownout = BrownoutController()
        self.hedge = HedgePolicy()
        self._hedging = d.enabled and d.hedging_enabled
        #: Recent batch service times for the hedge deadline, FIFO + sorted.
        self._service_window: deque[float] = deque()
        self._service_sorted: list[float] = []
        #: (module, node) -> (end_s, slowdown factor, probe-answer prob).
        self._gray: dict[tuple[str, int], tuple[float, float, float]] = {}
        #: Active/scheduled partition cuts over node labels "module:node".
        self._partitions: list[tuple[PartitionWindow, frozenset]] = []
        self._hb_tick = 0
        self._breaker_seen: dict[int, int] = {}
        self._retired_breaker_transitions = 0
        self.held_responses = 0
        self.gray_episodes = 0
        self._fault_seed = (fault_injector.plan.seed
                            if fault_injector is not None
                            else config.trace.seed)
        self.injector = fault_injector
        if fault_injector is not None:
            fault_injector.on(FaultKind.NODE_CRASH, self._on_crash)
            fault_injector.on(FaultKind.NETWORK_PARTITION, self._on_partition)
            fault_injector.on(FaultKind.GRAY_FAILURE, self._on_gray)
            fault_injector.require_handlers("the serving engine")
            fault_injector.arm(self.sim)

    # -- run ------------------------------------------------------------------
    def run(self) -> ServingReport:
        if self._ran:
            raise RuntimeError("a ServingEngine instance runs exactly once")
        self._ran = True
        self.sim.timeout_series([r.arrival_s for r in self.requests],
                                self.requests, self._on_arrival,
                                name="arrive")
        self._ensure_capacity()
        if self.pool.n_up == 0:
            raise RuntimeError("no module can host even one replica")
        if self.config.autoscaler.enabled:
            self.sim.timeout(AUTOSCALE_INTERVAL_S, name="autoscale-tick"
                             ).add_callback(self._on_tick)
        if self.defended:
            self.sim.timeout(HEARTBEAT_INTERVAL_S, name="heartbeat-tick"
                             ).add_callback(self._on_heartbeat_tick)
        self.sim.run()
        self.metrics.check_conservation()
        final = self.pool.n_up
        for replica in list(self.pool.replicas.values()):
            self.pool.retire(replica, self.sim.now)
        return ServingReport(
            config=self.config,
            metrics=self.metrics,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
            cache_coalesced=self.cache.coalesced,
            cache_hit_rate=self.cache.hit_rate,
            failover_events=list(self.failover_events),
            scale_events=list(self.autoscaler.events),
            peak_replicas=self.peak_replicas,
            final_replicas=final,
            module_replica_seconds=dict(self.pool.module_lifetime_s),
            batch_log=list(self.batch_log),
            defense_enabled=self.defended,
            partition_windows=len(self._partitions),
            gray_episodes=self.gray_episodes,
            held_responses=self.held_responses,
            suspicion_events=len(self.detector.suspicion_log),
            breaker_transitions=self._retired_breaker_transitions + sum(
                len(b.transitions) for b in self.breakers.values()),
            brownout_path=tuple(
                to for _, _, to in self.brownout.transitions),
            retry_budget_spent=self.budget.spent,
            retry_budget_refused=self.budget.refused,
            retry_budget_overdraft=self.budget.forced_overdraft,
        )

    # -- arrival path ---------------------------------------------------------
    def _on_arrival(self, evt) -> None:
        req: Request = evt.value
        now = self.sim.now
        if self.defended:
            level = self.brownout.level  # only CACHE_ONLY reads cacheable
            decision = self.admission.decide(
                now, self.batcher.depth, brownout_level=int(level),
                tier=req.tier, cacheable=level is BrownoutLevel.CACHE_ONLY
                and self.cache.contains(req.key))
        else:
            decision = self.admission.decide(now, self.batcher.depth)
        if not decision.admitted:
            self.metrics.record_rejection(decision.reason)
            if self.tracer.enabled:
                detail = {"detail": decision.detail} if decision.detail else {}
                self.tracer.instant(decision.reason, "serving", now,
                                    track="serving", lane="admission",
                                    req=req.req_id, **detail)
            return
        self.metrics.record_admission()
        if self.defended:
            self.budget.note_request()
        if self.tracer.enabled:
            self.tracer.emit(("admit", "serving", now, 0.0, "serving",
                              "admission", (("req", req.req_id),)))
        outcome = self.cache.lookup(req.key, req.req_id)
        if outcome == "hit":
            done = self.sim.timeout(CACHE_LOOKUP_S, value=req,
                                    name="cache-hit")
            done.add_callback(self._on_cache_hit)
        elif outcome == "coalesce":
            self._waiting[req.req_id] = req
        else:
            self.batcher.enqueue(req, now)
            self._kick()

    def _on_cache_hit(self, evt) -> None:
        req: Request = evt.value
        if self.tracer.enabled:
            self.tracer.emit(("cache-hit", "serving",
                              self.sim.now - CACHE_LOOKUP_S,
                              CACHE_LOOKUP_S, "serving", "cache",
                              (("req", req.req_id),)))
        self._complete(req)

    def _complete(self, req: Request) -> None:
        latency = self.metrics.record_completion(req, self.sim.now)
        self._window.append(latency)

    # -- dispatch -------------------------------------------------------------
    def _dispatchable(self, replica: Replica, now: float) -> bool:
        """May new work start on ``replica``?  (Breaker-gated.)"""
        breaker = self.breakers.get(replica.rid)
        return breaker is None or breaker.allows_dispatch(now)

    def _kick(self) -> None:
        now = self.sim.now
        while True:
            idle = self.pool.idle_replicas()
            if self.breakers:
                idle = [r for r in idle if self._dispatchable(r, now)]
            if not idle:
                break
            if not self.batcher.ready_model(now):
                break
            self._start_batch(idle[0], self.batcher.take())
        deadline = self.batcher.next_deadline()
        if deadline is not None and deadline > now + 1e-12:
            timer = self.sim.timeout(deadline - now, name="batch-timer")
            timer.add_callback(lambda _evt: self._kick())

    def _start_batch(self, replica: Replica, requests: list[Request],
                     group: Optional[HedgeGroup] = None) -> None:
        now = self.sim.now
        samples = sum(r.n_samples for r in requests)
        service = self.pool.batch_time(replica, samples)
        # Gray failure: the replica computes, just inflated by the episode
        # factor while the fault window is active.
        service *= self._gray_factor(replica, now)
        # Network partition: the batch computes, but its *response* cannot
        # reach the frontend while the replica sits on the far side of an
        # active cut — it is held to heal time plus a retransmission burst
        # (delayed, never lost; conservation survives the fault).
        delivery = self._response_hold(replica, now + service)
        if delivery > 0.0:
            self.held_responses += 1
            self.tracer.instant("response-held", "serving", now,
                                track="serving", lane="partition",
                                replica=replica.rid, hold_s=delivery)
        done = self.sim.timeout(service + delivery, value=replica,
                                name="batch-done")
        done.add_callback(self._on_batch_done)
        batch = InflightBatch(requests, now, done, group)
        replica.inflight = batch
        if self._hedging and group is None:
            deadline = self.hedge.deadline(self._service_sorted)
            if deadline is not None:
                timer = self.sim.timeout(deadline, value=(replica, batch),
                                         name="hedge")
                timer.add_callback(self._on_hedge_timer)

    def _gray_factor(self, replica: Replica, now: float) -> float:
        """Service-time inflation from active gray episodes on the replica."""
        factor = 1.0
        for node in replica.nodes:
            state = self._gray.get((replica.module_key, node))
            if state is not None and now < state[0]:
                factor = max(factor, state[1])
        return factor

    def _response_hold(self, replica: Replica, done_t: float) -> float:
        """Extra delay before a response computed at ``done_t`` lands.

        Iterates to a fixed point: a held response can land inside a later
        window, each window only pushes forward past its own end, so the
        loop is bounded by the window count.
        """
        if not self._partitions:
            return 0.0
        labels = replica.labels
        hold = 0.0
        for _ in range(len(self._partitions) + 1):
            stall = max((w.delay_until_heal(done_t + hold)
                         + _PARTITION_RETRANSMIT_S
                         for w, far in self._partitions
                         if w.active(done_t + hold)
                         and any(lbl in far for lbl in labels)),
                        default=0.0)
            if stall <= 0.0:
                return hold
            hold += stall
        return hold

    # -- hedged requests ------------------------------------------------------
    def _on_hedge_timer(self, evt) -> None:
        replica, batch = evt.value
        if replica.inflight is not batch or batch.group is not None:
            return  # completed, crashed away, or already hedged
        now = self.sim.now
        backups = [r for r in self.pool.idle_replicas()
                   if r.rid != replica.rid and self._dispatchable(r, now)]
        if not backups:
            return
        if not self.budget.try_spend():
            return  # budget dry: the hedge is optional work — skip it
        group = HedgeGroup(requests=batch.requests,
                           primary_rid=replica.rid,
                           sides={replica.rid: replica},
                           issued_at=now)
        batch.group = group
        backup = backups[0]
        group.sides[backup.rid] = backup
        self.metrics.record_hedge_issued()
        self.tracer.instant("hedge", "serving", now, track="serving",
                            lane="hedge", primary=replica.rid,
                            backup=backup.rid,
                            n_requests=len(batch.requests))
        self._start_batch(backup, list(batch.requests), group=group)

    def _on_batch_done(self, evt) -> None:
        replica: Replica = evt.value
        now = self.sim.now
        batch = replica.inflight
        assert batch is not None, "batch completion for an idle replica"
        replica.inflight = None
        group: Optional[HedgeGroup] = batch.group
        if group is not None:
            if group.completed:
                # The duplicate's cancellation did not beat its response
                # (defensive: winners cancel losers, so normally unreached).
                self.metrics.record_duplicate_response()
                self._kick()
                return
            group.completed = True
            backup_won = replica.rid != group.primary_rid
            wasted = self._cancel_hedge_losers(group, replica.rid, now)
            self.metrics.record_hedge_resolved(backup_won, wasted)
            self.breakers[replica.rid].record_success(now)
            self.tracer.instant("hedge-won", "serving", now,
                                track="serving", lane="hedge",
                                winner=replica.rid, backup_won=backup_won,
                                wasted_s=wasted)
        if self.tracer.enabled:
            self.tracer.emit(("batch", "serving", batch.start,
                              now - batch.start, "serving",
                              f"replica{replica.rid:03d}",
                              (("module", replica.module_key),
                               ("n_requests", len(batch.requests)))))
        self.metrics.record_batch(len(batch.requests), replica.module_key,
                                  (now - batch.start) * len(replica.nodes))
        self.batch_log.append(
            (replica.rid, tuple(r.req_id for r in batch.requests)))
        if self._hedging:
            slide_sorted(self._service_window, self._service_sorted,
                         now - batch.start, HedgePolicy.WINDOW)
        for req in batch.requests:
            self._complete(req)
            for waiter_id in self.cache.complete(req.key, now):
                self._complete(self._waiting.pop(waiter_id))
        self._kick()

    def _cancel_hedge_losers(self, group: HedgeGroup, winner_rid: int,
                             now: float) -> float:
        """Cancel every other in-flight side of ``group``; returns the
        wasted compute seconds the duplicates burned before cancellation."""
        wasted = 0.0
        for rid, other in list(group.sides.items()):
            if rid == winner_rid:
                continue
            ob = other.inflight
            if ob is not None and ob.group is group:
                ob.done_evt.cancel()
                other.inflight = None
                wasted += now - max(ob.start, group.issued_at)
                # Losing a hedge race is evidence against the replica —
                # feeding it to the breaker is what actually quarantines
                # a gray replica (probes alone flap: gray still answers
                # them with probability q).
                self.breakers[rid].record_failure(now)
            group.sides.pop(rid, None)
        return wasted

    # -- failover -------------------------------------------------------------
    def _on_crash(self, spec: FaultSpec) -> None:
        modules = self.system.compute_modules()
        module = modules.get(spec.module)
        if module is None or not (0 <= spec.node < module.n_nodes):
            return
        if spec.node in module.down_nodes:
            return  # already down; first crash's repair is pending
        now = self.sim.now
        replica = self.pool.find(spec.module, spec.node)
        module.mark_down(spec.node)
        repair = self.sim.timeout(spec.duration,
                                  value=(spec.module, spec.node),
                                  name=f"repair-{spec.module}-{spec.node}")
        repair.add_callback(self._on_repair)
        if replica is None:
            return  # the node hosted no replica — capacity dip only
        inflight = replica.inflight
        drained = self.pool.crash(replica, spec.node, now)
        self._unregister_replica(replica.rid)
        group: Optional[HedgeGroup] = \
            inflight.group if inflight is not None else None
        if group is not None:
            # A hedged side died.  If the other side still carries the
            # requests, there is nothing to requeue — first-response-wins
            # covers the loss and admitted = completed holds without a
            # retry.  Only a group whose every side is gone falls back to
            # the ordinary failover requeue below.
            group.sides.pop(replica.rid, None)
            survivor = any(
                r.inflight is not None and r.inflight.group is group
                for r in group.sides.values())
            if not group.completed and survivor:
                drained = []
        backoff = 0.0
        if drained:
            attempt = 1 + max(self._retries.get(r.req_id, 0)
                              for r in drained)
            for r in drained:
                self._retries[r.req_id] = attempt
            # Failover of admitted requests is mandatory work: the budget
            # is charged unconditionally, and an overdraft is one of the
            # signals the brownout controller escalates on.
            self.budget.spend_forced(float(len(drained)))
            # A request with less budget left than the backoff retries at
            # its deadline instead of sleeping past it.
            backoff = self.retry.delay_within(
                min(attempt, self.retry.max_retries), now,
                min(r.deadline_s for r in drained),
                key=f"replica-{replica.rid}")
            requeue = self.sim.timeout(backoff, value=drained,
                                       name=f"failover-r{replica.rid}")
            requeue.add_callback(self._on_failover_requeue)
        self.metrics.record_failover(len(drained))
        self.tracer.instant("failover", "fault", now, track="serving",
                            lane="failover", module=spec.module,
                            node=spec.node, drained=len(drained),
                            backoff_s=backoff)
        self.failover_events.append(FailoverEvent(
            replica_id=replica.rid, module_key=spec.module, node=spec.node,
            time=now, requests_drained=len(drained), backoff_s=backoff))
        self._ensure_capacity()
        self._kick()

    def _on_failover_requeue(self, evt) -> None:
        self.batcher.requeue_front(evt.value)
        self._kick()

    def _on_repair(self, evt) -> None:
        key, node = evt.value
        self.system.module(key).mark_up(node)
        self._ensure_capacity()
        self._kick()

    # -- ambiguous faults (partition / gray) ----------------------------------
    def _on_partition(self, spec: FaultSpec) -> None:
        """A seeded bipartition of the node fabric, active for a window."""
        now = self.sim.now
        labels = sorted(
            f"{key}:{n}"
            for key, mod in self.system.compute_modules().items()
            for n in range(mod.n_nodes))
        far = partition_cut(self._fault_seed, spec, labels)
        window = PartitionWindow(now, now + spec.duration)
        self._partitions.append((window, far))
        self.tracer.instant("partition-start", "fault", now, track="serving",
                            lane="partition", far=len(far),
                            heal_s=spec.duration)
        heal = self.sim.timeout(spec.duration, name="partition-heal")
        heal.add_callback(self._on_partition_heal)

    def _on_partition_heal(self, evt) -> None:
        now = self.sim.now
        self.tracer.instant("partition-heal", "fault", now, track="serving",
                            lane="partition")
        self._ensure_capacity()
        self._kick()

    def _on_gray(self, spec: FaultSpec) -> None:
        """A node starts serving ``magnitude``x slow while still answering
        health probes with probability ``spec.probability``."""
        now = self.sim.now
        self.gray_episodes += 1
        self._gray[(spec.module, spec.node)] = (
            now + spec.duration, spec.magnitude, spec.probability)
        self.tracer.instant("gray-start", "fault", now, track="serving",
                            lane="gray", module=spec.module, node=spec.node,
                            factor=spec.magnitude,
                            probe_prob=spec.probability)

    # -- health probing -------------------------------------------------------
    def _probe_answered(self, replica: Replica, now: float) -> bool:
        """Does ``replica`` answer this round's health probe?

        Partitioned replicas miss every probe (the probe cannot cross the
        cut); gray-failed ones answer with the episode's seeded
        probability — the ambiguity that defeats binary detectors and
        motivates phi-accrual suspicion.
        """
        for window, far in self._partitions:
            if window.active(now) and any(
                    lbl in far for lbl in replica.labels):
                return False
        for node in replica.nodes:
            state = self._gray.get((replica.module_key, node))
            if state is not None and now < state[0]:
                u = _stable_uniform(
                    self._fault_seed,
                    f"probe-{replica.module_key}:{node}", self._hb_tick)
                return u < state[2]
        return True

    def _on_heartbeat_tick(self, evt) -> None:
        now = self.sim.now
        self._hb_tick += 1
        for replica in list(self.pool.replicas.values()):
            if not replica.up:
                continue
            # Defended runs register a breaker with every placed replica.
            breaker = self.breakers[replica.rid]
            if self._probe_answered(replica, now):
                self.detector.heartbeat(replica.rid, now)
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
            self.detector.suspect(replica.rid, now)
        self._export_breaker_transitions(now)
        open_count = sum(1 for b in self.breakers.values()
                         if b.state(now) is BreakerState.OPEN)
        change = self.brownout.tick(
            now, self.batcher.depth, self.pool.n_up,
            self.budget.in_overdraft, open_count, len(self.breakers))
        if change is not None:
            old, new = change
            self.batcher.set_wait_stretch(self.brownout.wait_stretch)
            self.metrics.record_brownout_transition(int(new))
            self.tracer.instant("brownout", "serving", now, track="serving",
                                lane="brownout", from_level=int(old),
                                to_level=int(new))
            self._kick()
        drained = (self.metrics.completed == self.metrics.admitted)
        past_horizon = now >= self.config.trace.duration_s
        if not (past_horizon and drained):
            self.sim.timeout(HEARTBEAT_INTERVAL_S, name="heartbeat-tick"
                             ).add_callback(self._on_heartbeat_tick)

    def _export_breaker_transitions(self, now: float) -> None:
        """Emit breaker state changes since the last tick as telemetry."""
        for rid, breaker in self.breakers.items():
            seen = self._breaker_seen.get(rid, 0)
            for when, frm, to in breaker.transitions[seen:]:
                self.metrics.record_breaker_transition(to)
                self.tracer.instant("breaker", "serving", when,
                                    track="serving", lane="breaker",
                                    replica=rid, from_state=frm, to_state=to)
            self._breaker_seen[rid] = len(breaker.transitions)

    # -- replica registration -------------------------------------------------
    def _register_replica(self, replica: Replica) -> None:
        if not self.defended:
            return
        now = self.sim.now
        self.detector.register(replica.rid, now)
        self.breakers[replica.rid] = CircuitBreaker(
            key=f"replica-{replica.rid}", seed=self._fault_seed)
        self._breaker_seen[replica.rid] = 0

    def _unregister_replica(self, rid: int) -> None:
        self.detector.forget(rid)
        breaker = self.breakers.get(rid)
        if breaker is not None:
            self._export_breaker_transitions(self.sim.now)
            self._retired_breaker_transitions += len(breaker.transitions)
            del self.breakers[rid]
        self._breaker_seen.pop(rid, None)

    def _placement_avoid(self) -> Optional[dict[str, set[int]]]:
        """Nodes the health layer wants new replicas kept away from."""
        if not self.defended:
            return None
        now = self.sim.now
        avoid: dict[str, set[int]] = {}
        for (key, node), state in self._gray.items():
            if now < state[0]:
                avoid.setdefault(key, set()).add(node)
        for window, far in self._partitions:
            if window.active(now):
                for label in far:
                    key, _, node = label.partition(":")
                    avoid.setdefault(key, set()).add(int(node))
        return avoid or None

    # -- scaling --------------------------------------------------------------
    def _ensure_capacity(self) -> None:
        """Place replicas until the pool matches the current target."""
        while self.pool.n_up < self._target_replicas:
            replica = self.pool.place(self.sim.now,
                                      avoid=self._placement_avoid())
            if replica is None:
                break  # nowhere to place right now; repair/retire will retry
            self._register_replica(replica)
        self.peak_replicas = max(self.peak_replicas, self.pool.n_up)

    def _on_tick(self, evt) -> None:
        now = self.sim.now
        cfg = self.config.autoscaler
        delta, reason = self.autoscaler.decide(
            now, self.pool.n_up, self.batcher.depth, self._window,
            self.config.trace.slo_deadline_s)
        self._window = []
        if delta > 0:
            self._target_replicas = min(cfg.max_replicas,
                                        max(self._target_replicas,
                                            self.pool.n_up) + delta)
            before = self.pool.n_up
            self._ensure_capacity()
            if self.pool.n_up > before:
                self.autoscaler.note(now, self.pool.n_up - before,
                                     self.pool.n_up, reason)
                self.tracer.instant("scale-up", "serving", now,
                                    track="serving", lane="autoscaler",
                                    delta=self.pool.n_up - before,
                                    replicas=self.pool.n_up, reason=reason)
        elif delta < 0:
            victim = self.pool.retirement_candidate()
            if victim is not None:
                self.pool.retire(victim, now)
                self._unregister_replica(victim.rid)
                self._target_replicas = max(cfg.min_replicas,
                                            self.pool.n_up)
                self.autoscaler.note(now, -1, self.pool.n_up, reason)
                self.tracer.instant("scale-down", "serving", now,
                                    track="serving", lane="autoscaler",
                                    delta=-1, replicas=self.pool.n_up,
                                    reason=reason)
        self._kick()
        drained = (self.metrics.completed == self.metrics.admitted)
        past_horizon = now >= self.config.trace.duration_s
        if not (past_horizon and drained):
            self.sim.timeout(AUTOSCALE_INTERVAL_S, name="autoscale-tick"
                             ).add_callback(self._on_tick)



def simulate_serving(
    config: ServingConfig,
    system: Optional[MSASystem] = None,
    fault_injector: Optional[FaultInjector] = None,
    registry: Optional[telemetry.MetricsRegistry] = None,
) -> ServingReport:
    """Convenience wrapper: build an engine, run it, return the report."""
    return ServingEngine(config, system=system,
                         fault_injector=fault_injector,
                         registry=registry).run()
