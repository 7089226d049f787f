"""Heterogeneous workload scheduling onto MSA module combinations.

The paper's conclusion highlights "being able to schedule heterogeneous
workloads onto matching combinations of MSA module resources".  This module
implements that: a discrete-event scheduler that places each job phase on
the module minimising its estimated time-to-solution (matchmaking), with a
strict-FCFS queue and an optional conservative backfill.

Running the *same* workload mix through an MSA system and through
homogeneous baselines (cluster-only, booster-only) regenerates the Fig. 2
argument: the modular system wins on makespan and energy for mixed
workloads because no single module type suits every phase.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from operator import itemgetter
from typing import Mapping, Optional

from repro import telemetry
from repro.simnet.events import Event, Simulator
from repro.core.energy import EnergyAccountant
from repro.core.jobs import CoAllocatedPhase, Job, JobPhase, JobStatus, phase_runtime
from repro.core.module import ComputeModule, StorageModule
from repro.core.system import MSASystem
from repro.resilience.faults import FaultInjector, FaultKind, FaultSpec
from repro.resilience.report import (
    FailureEvent,
    RecoveryEvent,
    RequeueEvent,
    ResilienceReport,
)
from repro.resilience.retry import RetryPolicy

#: Storage bandwidth (GB/s) a placement assumes with no storage to measure.
FALLBACK_IO_GBPS = 40.0


class SchedulerPolicy(str, Enum):
    FCFS = "fcfs"
    FCFS_BACKFILL = "fcfs-backfill"
    FAIR_SHARE = "fair-share"


class PlacementPolicy(str, Enum):
    MATCHMAKING = "matchmaking"      # min estimated time-to-solution (MSA mode)
    FIRST_FIT = "first-fit"          # naive: first module with free nodes


@dataclass(frozen=True)
class Allocation:
    """A phase execution record."""

    job_name: str
    phase_index: int
    phase_name: str
    module_key: str
    nodes: tuple[int, ...]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def node_seconds(self) -> float:
        return len(self.nodes) * self.duration


@dataclass
class ScheduleReport:
    """Outcome of one scheduling run."""

    system_name: str
    allocations: list[Allocation]
    completion_times: dict[str, float]
    wait_times: dict[str, float]
    makespan: float
    energy_busy_joules: float
    energy_idle_joules: float
    module_utilisation: dict[str, float]
    #: Terminal status per submitted job (all COMPLETED when no faults).
    job_status: dict[str, JobStatus] = field(default_factory=dict)
    #: Fault/recovery accounting; None when injection is disabled.
    resilience: Optional[ResilienceReport] = None
    #: Submission time per job (turnaround = completion - arrival).
    arrival_times: dict[str, float] = field(default_factory=dict)

    @property
    def failed_jobs(self) -> list[str]:
        return sorted(name for name, status in self.job_status.items()
                      if status is JobStatus.FAILED)

    @property
    def energy_total_joules(self) -> float:
        return self.energy_busy_joules + self.energy_idle_joules

    @property
    def energy_kwh(self) -> float:
        return self.energy_total_joules / 3.6e6

    @property
    def mean_wait(self) -> float:
        if not self.wait_times:
            return 0.0
        return sum(self.wait_times.values()) / len(self.wait_times)

    @property
    def mean_turnaround(self) -> float:
        if not self.completion_times:
            return 0.0
        return sum(done - self.arrival_times.get(name, 0.0)
                   for name, done in self.completion_times.items()
                   ) / len(self.completion_times)

    def summary(self) -> str:
        rows = [
            f"schedule on {self.system_name}:",
            f"  jobs completed : {len(self.completion_times)}",
            f"  makespan       : {self.makespan:,.0f} s",
            f"  mean wait      : {self.mean_wait:,.0f} s",
            f"  energy         : {self.energy_kwh:,.1f} kWh "
            f"(busy {self.energy_busy_joules / 3.6e6:,.1f}, "
            f"idle {self.energy_idle_joules / 3.6e6:,.1f})",
        ]
        for key, util in sorted(self.module_utilisation.items()):
            rows.append(f"  util[{key:<12}]: {util:6.1%}")
        if self.resilience is not None:
            rows.append(self.resilience.summary())
        return "\n".join(rows)

    def publish_metrics(self, reg: "telemetry.MetricsRegistry") -> None:
        """Publish the report's headline numbers as registry gauges."""
        reg.gauge("scheduler_jobs_completed").set(len(self.completion_times))
        reg.gauge("scheduler_jobs_failed").set(len(self.failed_jobs))
        reg.gauge("scheduler_makespan_seconds").set(self.makespan)
        reg.gauge("scheduler_mean_wait_seconds").set(self.mean_wait)
        reg.gauge("scheduler_energy_joules", kind="busy").set(
            self.energy_busy_joules)
        reg.gauge("scheduler_energy_joules", kind="idle").set(
            self.energy_idle_joules)
        for key, util in self.module_utilisation.items():
            reg.gauge("scheduler_module_utilisation", module=key).set(util)


def _degrade_factor(degraded: Mapping[str, list[float]], key: str) -> float:
    factors = degraded.get(key)
    return max(factors) if factors else 1.0


class PlacementTable:
    """Every candidate placement of one phase, scored once — the one
    matchmaking scoring path.

    A row is ``(score, module_key, module, n_alloc)``: estimated runtime
    plus, when the previous phase ran elsewhere, the (possibly degraded)
    federation transfer of the phase's input.  That is a pure function of
    the phase, the module's static inventory (``n_nodes`` never changes —
    only ``free_nodes`` does), the storage bandwidth, ``prev_module`` and
    the active link-degrade factors, so callers re-check only feasibility.
    ``n_nodes`` pins the allocation size (standalone placements); by
    default a phase takes what it asked for, clamped to the module.

    Two orders, because the seed's loops broke score ties two ways:
    ``by_key`` is sorted by ``(score, key)`` (single-module choice),
    ``by_order`` by score alone, stably — ties stay in ``compute_modules()``
    order (first strict minimum: the backfill-blocked module and the
    co-allocation pick).
    """

    __slots__ = ("by_key", "by_order", "best_score", "blocked")

    def __init__(self, system: MSASystem, phase: JobPhase, io_GBps: float,
                 modules: Optional[Mapping[str, ComputeModule]] = None,
                 n_nodes: Optional[int] = None,
                 prev_module: Optional[str] = None,
                 degraded: Optional[Mapping[str, list[float]]] = None) -> None:
        if modules is None:
            modules = system.compute_modules()
        rows = []
        for key, module in modules.items():
            n = min(phase.nodes, module.n_nodes) if n_nodes is None else n_nodes
            if n < 1 or module.n_nodes < n:
                continue
            t = phase_runtime(phase, module, n, io_GBps=io_GBps)
            if prev_module is not None and prev_module != key:
                xfer = system.inter_module_transfer_time(
                    prev_module, key, phase.io_bytes)
                if degraded:
                    xfer *= max(_degrade_factor(degraded, prev_module),
                                _degrade_factor(degraded, key))
                t += xfer
            rows.append((t, key, module, n))
        self.by_key = tuple(sorted(rows, key=itemgetter(0, 1)))
        self.by_order = tuple(sorted(rows, key=itemgetter(0)))
        #: Best score on any module, free or not (the patience reference).
        self.best_score = self.by_key[0][0] if rows else float("inf")
        #: Module a waiting queue head is holding out for.
        self.blocked = frozenset(row[1] for row in self.by_order[:1])


@dataclass
class _JobState:
    job: Job
    next_phase: int = 0
    prev_module: Optional[str] = None
    #: How many times this job has been killed by a fault.
    attempts: int = 0
    #: Set while a failure awaits its restart (recovery/MTTR accounting).
    failed_at: Optional[float] = None

    @property
    def current(self) -> JobPhase:
        return self.job.phases[self.next_phase]


@dataclass(eq=False)
class _RunningRecord:
    """A phase in flight: everything needed to kill or stretch it."""

    state: _JobState
    start: float
    end: float
    done_evt: Event
    #: One ``(allocation index, module, phase)`` per placement; the key
    #: and nodes are the allocation's.
    parts: list[tuple[int, ComputeModule, JobPhase]]


class MsaScheduler:
    """Discrete-event scheduler over an :class:`MSASystem`."""

    def __init__(
        self,
        system: MSASystem,
        queue_policy: SchedulerPolicy = SchedulerPolicy.FCFS_BACKFILL,
        placement: PlacementPolicy = PlacementPolicy.MATCHMAKING,
        patience_factor: Optional[float] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.system = system
        self.queue_policy = queue_policy
        self.placement = placement
        if patience_factor is not None:
            if patience_factor < 1.0:
                raise ValueError("patience_factor must be >= 1")
            self.PATIENCE_FACTOR = patience_factor
        self.sim = Simulator()
        self.tracer = telemetry.get_tracer()
        self.energy = EnergyAccountant()
        self._ready: list[_JobState] = []
        #: Queued states whose current phase is co-allocated.
        self._coallocs_queued = 0
        self._allocations: list[Allocation] = []
        self._completions: dict[str, float] = {}
        self._failures_final: dict[str, float] = {}
        self._waits: dict[str, float] = {}
        self._busy_node_seconds: dict[str, float] = {}
        self._user_usage: dict[str, float] = {}
        self._arrivals: dict[str, float] = {}
        self._io_GBps = self._storage_bandwidth()
        #: Compute modules, snapshotted per ``system.revision``.
        self._modules: dict[str, ComputeModule] = {}
        self._modules_revision = -1
        #: Placement tables of each queued job's current phase, by job name.
        self._tables: dict[str, tuple[PlacementTable, ...]] = {}
        #: ``(states settled, blocked)`` where the last backfill walk stopped.
        self._settled: Optional[tuple[int, set[str]]] = None
        #: States ``_choose`` scored — dispatch's counted work.
        self.states_scored = 0
        self._status: dict[str, JobStatus] = {}
        self._running: list[_RunningRecord] = []
        #: Recently crashed nodes per module — placement steers around them.
        self._suspect: dict[str, set[int]] = {}
        #: Active link-degradation factors per module key.
        self._degraded: dict[str, list[float]] = {}
        self.injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        #: Fault/recovery ledger; reaches the report only with an injector.
        self.resilience = ResilienceReport()
        if fault_injector is not None:
            # The injector appends to this exact list as faults fire.
            self.resilience.faults_injected = fault_injector.injected
            fault_injector.on(FaultKind.NODE_CRASH, self._on_node_crash)
            fault_injector.on(FaultKind.STRAGGLER, self._on_straggler)
            fault_injector.on(FaultKind.LINK_DEGRADE, self._on_link_degrade)
            fault_injector.require_handlers("the batch scheduler")
            fault_injector.arm(self.sim)

    def _storage_bandwidth(self) -> float:
        storages = [
            m for m in self.system.modules.values() if isinstance(m, StorageModule)
        ]
        if not storages:
            return FALLBACK_IO_GBPS
        return sum(s.aggregate_GBps for s in storages)

    # -- submission ---------------------------------------------------------
    def submit(self, job: Job) -> None:
        if job.name in self._status:   # every table and ledger is by name
            raise ValueError(f"duplicate job name {job.name!r}")
        self._arrivals[job.name] = job.arrival_time
        self._status[job.name] = JobStatus.PENDING
        evt = self.sim.timeout(job.arrival_time, value=job, name=f"arrive-{job.name}")
        evt.add_callback(self._on_arrival)

    def submit_all(self, jobs: list[Job]) -> None:
        for job in jobs:
            self.submit(job)

    # -- event handlers --------------------------------------------------------
    def _on_arrival(self, evt) -> None:
        self.tracer.instant("submit", "scheduler", self.sim.now,
                            track="scheduler", lane="queue",
                            job=evt.value.name)
        self._enqueue(_JobState(job=evt.value))
        self._dispatch(appended=True)

    def _on_phase_done(self, evt) -> None:
        record: _RunningRecord = evt.value
        self._running.remove(record)
        state = record.state
        self._trace_phase(record, killed=False)
        for idx, module, _ in record.parts:
            module.release(list(self._allocations[idx].nodes))
        state.prev_module = self._allocations[record.parts[-1][0]].module_key
        state.next_phase += 1
        self._tables.pop(state.job.name, None)   # scores were this phase's
        if state.next_phase == len(state.job.phases):
            self._completions[state.job.name] = self.sim.now
            self._status[state.job.name] = JobStatus.COMPLETED
        else:
            # Running jobs continue ahead of newly queued ones.
            self._enqueue(state, front=True)
        self._dispatch()

    def _trace_phase(self, record: _RunningRecord, killed: bool) -> None:
        """One span per placement, on the job's lane, ending now."""
        if not self.tracer.enabled:
            return
        state = record.state
        now = self.sim.now
        for idx, _, _ in record.parts:
            alloc = self._allocations[idx]
            self.tracer.record(
                f"{alloc.phase_name}", "scheduler", record.start,
                now - record.start, track="scheduler", lane=state.job.name,
                module=alloc.module_key, n_nodes=len(alloc.nodes),
                phase_index=alloc.phase_index, killed=killed)

    # -- fault handling -----------------------------------------------------
    def _find_running(self, module_key: str, node: int) -> Optional[_RunningRecord]:
        for record in self._running:
            for idx, _, _ in record.parts:
                alloc = self._allocations[idx]
                if alloc.module_key == module_key and node in alloc.nodes:
                    return record
        return None

    def _on_node_crash(self, spec: FaultSpec) -> None:
        module = self._compute_modules().get(spec.module)
        if module is None or not (0 <= spec.node < module.n_nodes):
            return  # fault targets nothing this system has
        if spec.node in module.down_nodes:
            return  # already down — repair for the first crash is pending
        record = self._find_running(spec.module, spec.node)
        module.mark_down(spec.node)
        self._suspect.setdefault(spec.module, set()).add(spec.node)
        repair = self.sim.timeout(spec.duration, value=(spec.module, spec.node),
                                  name=f"repair-{spec.module}-{spec.node}")
        repair.add_callback(self._on_repair)
        if record is not None:
            self._fail_running(record, spec)
        self._dispatch()

    def _on_repair(self, evt) -> None:
        key, node = evt.value
        self.system.module(key).mark_up(node)
        self.resilience.repairs.append((self.sim.now, key, node))
        self._dispatch()

    def quarantine(self, module_key: str, node: int) -> None:
        """Mark a node suspect without a crash event.

        The integrity layer calls this when a verified collective
        identifies a rank whose contributions are corrupt: the node keeps
        running (it is not *down* — it computes wrong answers), so nothing
        is killed or repaired, but placement steers new allocations around
        it exactly like a recently crashed node.
        """
        if module_key not in self.system.modules:
            raise ValueError(f"unknown module {module_key!r}")
        self._suspect.setdefault(module_key, set()).add(node)
        self.tracer.instant("quarantine", "fault", self.sim.now,
                            track="faults", lane="corruption",
                            module=module_key, node=node)
        telemetry.get_registry().counter(
            "scheduler_quarantined_nodes_total", module=module_key).inc()

    def _avoid_nodes(self, module_key: str) -> Optional[set]:
        """Nodes placement should steer around: crashed or quarantined."""
        return set(self._suspect.get(module_key, ())) or None

    def suspect_nodes(self, module_key: str) -> frozenset:
        """Currently suspect nodes of a module (crashed or quarantined)."""
        return frozenset(self._avoid_nodes(module_key) or ())

    def _fail_running(self, record: _RunningRecord, spec: FaultSpec) -> None:
        """Kill a phase in flight: retract its completion, refund the tail,
        release survivors, and requeue or permanently fail the job."""
        now = self.sim.now
        record.done_evt.cancel()
        self._running.remove(record)
        state = record.state
        self._trace_phase(record, killed=True)
        lost_node_seconds = 0.0
        for idx, module, _ in record.parts:
            alloc = self._allocations[idx]
            module.release([n for n in alloc.nodes
                            if not (alloc.module_key == spec.module
                                    and n == spec.node)])
            lost_node_seconds += len(alloc.nodes) * (now - alloc.start)
        self._retime(record, now)
        state.attempts += 1
        state.failed_at = now
        self.resilience.failures.append(FailureEvent(
            job_name=state.job.name,
            phase_index=state.next_phase,
            time=now,
            module_key=spec.module,
            node=spec.node,
            lost_node_seconds=lost_node_seconds,
            attempt=state.attempts,
        ))
        if self.retry_policy.should_retry(state.attempts):
            self._status[state.job.name] = JobStatus.REQUEUED
            delay = self.retry_policy.delay(state.attempts, key=state.job.name)
            self.resilience.requeues.append(RequeueEvent(
                job_name=state.job.name, attempt=state.attempts,
                backoff_s=delay, time=now,
            ))
            self.tracer.instant("requeue", "scheduler", now,
                                track="scheduler", lane="queue",
                                job=state.job.name, attempt=state.attempts,
                                backoff_s=delay)
            requeue = self.sim.timeout(delay, value=state,
                                       name=f"requeue-{state.job.name}")
            requeue.add_callback(self._on_requeue)
        else:
            self._status[state.job.name] = JobStatus.FAILED
            self._failures_final[state.job.name] = now
            self._tables.pop(state.job.name, None)
            self.resilience.jobs_failed_permanently.append(state.job.name)

    def _on_requeue(self, evt) -> None:
        self._enqueue(evt.value)
        self._dispatch(appended=True)

    def _on_straggler(self, spec: FaultSpec) -> None:
        record = self._find_running(spec.module, spec.node)
        if record is None:
            return  # node idle — nothing to slow down
        now = self.sim.now
        extra = (record.end - now) * (spec.magnitude - 1.0)
        if extra <= 0:
            return
        record.done_evt.cancel()
        delay = record.end + extra - now
        # The completion event fires at now + delay; pin the allocation end
        # to that exact float so release and next-start never disagree by
        # an ULP.
        self._retime(record, now + delay)
        self._arm_done(record, delay)

    def _retime(self, record: _RunningRecord, end: float) -> None:
        """Move a running phase's end to ``end``: busy and user
        node-seconds, allocation ends and energy follow the signed delta
        (a crash cuts the tail, a straggler stretches it)."""
        delta = end - record.end
        for idx, module, phase in record.parts:
            alloc = self._allocations[idx]
            n = len(alloc.nodes)
            self._busy_node_seconds[alloc.module_key] += n * delta
            self._user_usage[record.state.job.user] += n * delta
            self._allocations[idx] = replace(alloc, end=end)
            if delta < 0:
                self.energy.credit_phase(alloc.module_key, module.node_spec,
                                         phase, n, -delta)
            else:
                self.energy.charge_phase(alloc.module_key, module.node_spec,
                                         phase, n, delta)
        record.end = end

    def _on_link_degrade(self, spec: FaultSpec) -> None:
        self._degraded.setdefault(spec.module, []).append(spec.magnitude)
        self._forget_scores()   # transfer terms changed
        recover = self.sim.timeout(spec.duration, value=spec,
                                   name=f"link-recover-{spec.module}")
        recover.add_callback(self._on_link_recover)

    def _on_link_recover(self, evt) -> None:
        spec: FaultSpec = evt.value
        factors = self._degraded[spec.module]
        factors.remove(spec.magnitude)
        if not factors:
            del self._degraded[spec.module]
        self._forget_scores()

    # -- placement -----------------------------------------------------------------
    def _compute_modules(self) -> dict[str, ComputeModule]:
        """The system's compute modules; re-read only after ``add_module``
        (which also changes the federation, so the tables go too)."""
        if self._modules_revision != self.system.revision:
            self._modules_revision = self.system.revision
            self._modules = self.system.compute_modules()
            self._forget_scores()
        return self._modules

    def _forget_scores(self) -> None:
        """Drop every placement table and the settled walk read from them."""
        self._tables.clear()
        self._settled = None

    def _placement_tables(self, state: _JobState) -> tuple[PlacementTable, ...]:
        """Scores of the state's current phase, one table per co-allocated
        component (which are scored without a staging transfer).  Built on
        first use; dropped when the phase advances, a link degrades or
        recovers, or the system gains a module."""
        tables = self._tables.get(state.job.name)
        if tables is None:
            phase = state.current
            if isinstance(phase, CoAllocatedPhase):
                tables = tuple(
                    PlacementTable(self.system, component, self._io_GBps,
                                   modules=self._modules)
                    for component in phase.components)
            else:
                tables = (PlacementTable(
                    self.system, phase, self._io_GBps, modules=self._modules,
                    prev_module=state.prev_module, degraded=self._degraded),)
            self._tables[state.job.name] = tables
        return tables

    #: A queued phase refuses a feasible-now module whose estimated runtime
    #: exceeds this multiple of the best module's — it waits instead.
    PATIENCE_FACTOR = 3.0

    def _choose(self, table: PlacementTable
                ) -> Optional[tuple[float, str, ComputeModule, int]]:
        """Best feasible ``(runtime, key, module, n)`` row now, or None to
        keep waiting."""
        self.states_scored += 1
        best = None
        for row in table.by_key:
            if row[2].free_nodes >= row[3]:
                if self.placement is PlacementPolicy.MATCHMAKING:
                    # With patience: starting now on a badly-matching module
                    # (e.g. DL training on a CPU-only cluster) can be orders of
                    # magnitude worse than queueing for the matching one.
                    wait = row[0] > self.PATIENCE_FACTOR * table.best_score
                    return None if wait else row
                if best is None or row[1] < best[1]:   # first fit: least key
                    best = row
        return best

    # -- co-allocation (multi-module phases) --------------------------------
    def _start_coalloc(self, state: _JobState) -> bool:
        """Greedy per-component placement, all-or-nothing: the phase starts
        now if every component finds a module, else nothing is taken."""
        phase: CoAllocatedPhase = state.current
        taken: dict[str, int] = {}
        rows, slowest = [], 0.0
        for component, table in zip(phase.components,
                                    self._placement_tables(state)):
            row = next((row for row in table.by_order
                        if row[2].free_nodes - taken.get(row[1], 0) >= row[3]),
                       None)
            # The patience rule of single-module phases: a component refuses
            # a badly-matching module and the whole co-allocation waits.
            if row is None or row[0] > self.PATIENCE_FACTOR * table.best_score:
                return False
            t, key, module, n = row
            taken[key] = taken.get(key, 0) + n
            slowest = max(slowest, t)
            rows.append((key, module, n, component,
                         f"{phase.name}/{component.name}"))
        # The co-allocation completes when the slowest component does, plus
        # the coupling traffic crossing the federation.
        coupling = 0.0
        modules_used = sorted({key for key, *_ in rows})
        if phase.coupling_bytes > 0 and len(modules_used) > 1:
            a, b = modules_used[:2]
            coupling = self.system.inter_module_transfer_time(
                a, b, phase.coupling_bytes)
            if self._degraded:
                coupling *= max(_degrade_factor(self._degraded, m)
                                for m in modules_used)
        self.tracer.instant("place", "scheduler", self.sim.now,
                            track="scheduler", lane="queue",
                            job=state.job.name,
                            modules=",".join(modules_used))
        self._start(state, rows, slowest + coupling)
        return True

    def _start(self, state: _JobState, rows, runtime: float) -> None:
        """Start the state's current phase now, to run ``runtime`` seconds.

        ``rows`` holds one ``(key, module, n, phase, allocation name)`` per
        component — a plain phase is the one-row case.  Every row takes its
        nodes and is charged (busy/user node-seconds, energy) up front; the
        one completion event releases them all.
        """
        start = self.sim.now
        end = start + runtime
        job = state.job
        if job.name not in self._waits:
            self._waits[job.name] = start - job.arrival_time
        self._status[job.name] = JobStatus.RUNNING
        if state.failed_at is not None:
            self.resilience.recoveries.append(RecoveryEvent(
                job_name=job.name, attempt=state.attempts,
                failed_at=state.failed_at, restarted_at=start))
            state.failed_at = None
        record = _RunningRecord(state=state, start=start, end=end,
                                done_evt=None, parts=[])
        for key, module, n, phase, name in rows:
            nodes = tuple(module.allocate(n, avoid=self._avoid_nodes(key)))
            alloc = Allocation(
                job_name=job.name,
                phase_index=state.next_phase,
                phase_name=name,
                module_key=key,
                nodes=nodes,
                start=start,
                end=end,
            )
            record.parts.append((len(self._allocations), module, phase))
            self._allocations.append(alloc)
            self._busy_node_seconds[key] = (
                self._busy_node_seconds.get(key, 0.0) + alloc.node_seconds)
            self._user_usage[job.user] = (
                self._user_usage.get(job.user, 0.0) + alloc.node_seconds)
            self.energy.charge_phase(key, module.node_spec, phase, n, runtime)
        self._arm_done(record, runtime)
        self._running.append(record)

    def _arm_done(self, record: _RunningRecord, delay: float) -> None:
        """Schedule the record's one completion event ``delay`` from now."""
        record.done_evt = self.sim.timeout(
            delay, value=record, name=f"done-{record.state.job.name}")
        record.done_evt.add_callback(self._on_phase_done)

    def _enqueue(self, state: _JobState, front: bool = False) -> None:
        """Queue ``state``; a continuing job goes to the ``front``."""
        self._ready.insert(0 if front else len(self._ready), state)
        self._coallocs_queued += isinstance(state.current, CoAllocatedPhase)

    def _dispatch(self, appended: bool = False) -> None:
        """Start every queued phase that can start now.  A backfill walk
        leaves ``(states settled, blocked)`` behind; after a pure append
        (``appended``) free counts only fell, on modules no settled state
        could use, so the next walk resumes there (DESIGN §11)."""
        ready, policy = self._ready, self.queue_policy
        if policy is SchedulerPolicy.FAIR_SHARE:
            # Least-consuming community first (stable: arrival order is
            # preserved within a community) — how a multi-community centre
            # keeps any one domain from monopolising the modules.
            ready.sort(key=lambda s: self._user_usage.get(s.job.user, 0.0))
        modules = self._compute_modules().values()
        i, blocked = (appended and self._settled) or (0, set())
        fcfs = policy is SchedulerPolicy.FCFS
        resumable = policy is SchedulerPolicy.FCFS_BACKFILL
        # With every node busy nothing further down the queue can start.
        free = any(m.free_nodes for m in modules)
        passed = 0      # co-allocations the walk has left queued
        while free and i < len(ready):
            if len(blocked) >= len(modules) and passed == self._coallocs_queued:
                i = len(ready)   # no co-allocation ahead: nothing can start
                break
            state = ready[i]
            phase = state.current
            coalloc = isinstance(phase, CoAllocatedPhase)
            started = False
            if coalloc:
                # Co-allocations neither consult nor extend ``blocked``; greedy
                # per component, one can start *because* a count fell: no memo.
                started = self._start_coalloc(state)
                resumable = False
            elif len(blocked) < len(modules):
                # Scored only while some module is unblocked: with every one
                # held for a job further up the choice is None or a blocked
                # module, and ``table.blocked`` is already in the set.
                (table,) = self._placement_tables(state)
                choice = self._choose(table)
                started = choice is not None and choice[1] not in blocked
                if started:
                    runtime, key, module, n = choice
                    self.tracer.instant("place", "scheduler", self.sim.now,
                                        track="scheduler", lane="queue",
                                        job=state.job.name, modules=key,
                                        n_nodes=n)
                    self._start(state, ((key, module, n, phase, phase.name),),
                                runtime)
                else:
                    # Backfill walks on but must not take nodes from the
                    # module this job is waiting for.
                    blocked |= table.blocked
            if started:
                ready.pop(i)   # same index now holds the next job
                self._coallocs_queued -= coalloc
                free = any(m.free_nodes for m in modules)
            elif fcfs:
                break   # strict FCFS stops at a head that cannot start
            else:
                passed += coalloc
                i += 1
        self._settled = (i, blocked) if resumable else None

    # -- execution ------------------------------------------------------------------
    def run(self) -> ScheduleReport:
        """Run the event loop to completion and produce the report."""
        self.sim.run()
        missing = (len(self._status) - len(self._completions)
                   - len(self._failures_final))
        if missing:
            raise RuntimeError(f"{missing} jobs never completed — scheduler stuck")
        makespan = max(
            [*self._completions.values(), *self._failures_final.values()],
            default=0.0,
        )
        utilisation: dict[str, float] = {}
        for key, module in self._compute_modules().items():
            busy = self._busy_node_seconds.get(key, 0.0)
            total = module.n_nodes * makespan
            utilisation[key] = busy / total if total > 0 else 0.0
            idle_node_seconds = max(total - busy, 0.0)
            self.energy.charge_idle(key, module.node_spec, idle_node_seconds)
        report = ScheduleReport(
            system_name=self.system.name,
            allocations=list(self._allocations),
            completion_times=dict(self._completions),
            wait_times=dict(self._waits),
            makespan=makespan,
            energy_busy_joules=self.energy.busy_joules,
            energy_idle_joules=self.energy.idle_joules,
            module_utilisation=utilisation,
            job_status=dict(self._status),
            resilience=(self.resilience if self.injector is not None
                        else None),
            arrival_times=dict(self._arrivals),
        )
        reg = telemetry.get_registry()
        if reg.enabled:
            report.publish_metrics(reg)
            self.resilience.publish_metrics(reg)
        return report


# ---------------------------------------------------------------------------
# standalone matchmaking (serving replicas, ad-hoc placements)
# ---------------------------------------------------------------------------

def rank_placements(
    system: MSASystem,
    phase: JobPhase,
    n_nodes: int = 1,
) -> list[tuple[float, str, ComputeModule]]:
    """Matchmaking scores for a standalone phase, best module first.

    The same :func:`~repro.core.jobs.phase_runtime` scoring the batch
    scheduler minimises, exposed for consumers that place long-lived
    resources outside the job queue — the serving replica pool uses this to
    decide whether a new inference replica lands on the ESB, the DAM or the
    CM.  Ties break on the module key, so rankings are deterministic.
    """
    if n_nodes < 1:
        raise ValueError("need at least one node per placement")
    table = PlacementTable(system, phase, FALLBACK_IO_GBPS, n_nodes=n_nodes)
    # Runtime first; among equally fast modules prefer the more scalable one
    # (the paper's pattern: inference scales out on the big booster, not on
    # the handful of DAM nodes that happen to carry the same GPU).
    return sorted(((t, key, module) for t, key, module, _ in table.by_key),
                  key=lambda s: (s[0], -s[2].n_nodes, s[1]))


def place_standalone(
    system: MSASystem,
    phase: JobPhase,
    n_nodes: int,
    suspect: dict[str, set[int]],
) -> Optional[tuple[str, tuple[int, ...]]]:
    """Allocate ``n_nodes`` on the best-scoring module with capacity.

    Returns ``(module_key, node_ids)`` or ``None`` when no module currently
    has enough free nodes.  ``suspect`` marks recently crashed nodes per
    module; they are used only as a last resort (failure-aware placement,
    same semantics as the batch scheduler).  The caller owns the release.
    """
    for _, key, module in rank_placements(system, phase, n_nodes):
        if module.free_nodes >= n_nodes:
            nodes = tuple(module.allocate(n_nodes, avoid=suspect.get(key)))
            return key, nodes
    return None


def schedule_workload(
    system: MSASystem,
    jobs: list[Job],
    queue_policy: SchedulerPolicy = SchedulerPolicy.FCFS_BACKFILL,
    placement: PlacementPolicy = PlacementPolicy.MATCHMAKING,
    fault_injector: Optional[FaultInjector] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> ScheduleReport:
    """Convenience wrapper: submit ``jobs`` to ``system`` and run."""
    sched = MsaScheduler(system, queue_policy=queue_policy, placement=placement,
                         fault_injector=fault_injector,
                         retry_policy=retry_policy)
    sched.submit_all(jobs)
    return sched.run()
