"""Differential oracle for the batch scheduler's dispatch walk.

``MsaScheduler._dispatch`` skips work it can prove is wasted: it resumes a
settled backfill walk after a pure append, stops scoring single-module
phases once every module is blocked, and re-reads "any node free" only
after a start.  ``FullWalkScheduler`` below carries the walk it replaced —
every event re-scores the queue from index 0 — verbatim, as the reference:
both must produce the same schedule, ledger and report for any queue
policy, placement policy, job mix and fault plan.
"""

from operator import itemgetter

import pytest

from repro.core import (
    BoosterModule,
    CoAllocatedPhase,
    DEEP_ESB_NODE,
    Job,
    JobPhase,
    MsaScheduler,
    WorkloadClass,
    deep_system,
    small_msa_system,
    synthetic_workload_mix,
)
from repro.core.scheduler import PlacementPolicy, SchedulerPolicy
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)
from tests.test_simnet_events import run_until


class FullWalkScheduler(MsaScheduler):
    """The dispatch walk before the settled-walk memo (PR 23's tree)."""

    def _choose(self, table):
        feasible = (row for row in table.by_key
                    if row[2].free_nodes >= row[3])
        if self.placement is PlacementPolicy.FIRST_FIT:
            return min(feasible, key=itemgetter(1), default=None)
        row = next(feasible, None)
        if row is not None and row[0] > self.PATIENCE_FACTOR * table.best_score:
            return None
        return row

    def _dispatch(self, appended=False):
        if self.queue_policy is SchedulerPolicy.FAIR_SHARE:
            self._ready.sort(
                key=lambda s: self._user_usage.get(s.job.user, 0.0))
        modules = self._compute_modules().values()
        blocked: set[str] = set()
        i = 0
        while i < len(self._ready) and any(m.free_nodes for m in modules):
            state = self._ready[i]
            if isinstance(state.current, CoAllocatedPhase):
                if self._start_coalloc(state):
                    self._ready.pop(i)
                    continue
                if self.queue_policy is SchedulerPolicy.FCFS:
                    break
                i += 1
                continue
            (table,) = self._placement_tables(state)
            choice = self._choose(table)
            if choice is not None and choice[1] not in blocked:
                runtime, key, module, n = choice
                self.tracer.instant("place", "scheduler", self.sim.now,
                                    track="scheduler", lane="queue",
                                    job=state.job.name, modules=key,
                                    n_nodes=n)
                phase = state.current
                self._start(state, ((key, module, n, phase, phase.name),),
                            runtime)
                self._ready.pop(i)
                continue
            if self.queue_policy is SchedulerPolicy.FCFS:
                break
            blocked |= table.blocked
            i += 1


# ---------------------------------------------------------------------------
# scenarios: system x job mix x fault plan, all derived from one seed
# ---------------------------------------------------------------------------

def _insitu(name, arrival, solver_nodes, analytics_nodes, tail=False):
    """A solver∥analytics co-allocation, optionally followed by a GPU phase
    so the job re-enters the queue head after its co-allocated phase."""
    phases = [CoAllocatedPhase(
        name="solve+analyse",
        components=(
            JobPhase(name="solver",
                     workload=WorkloadClass.SIMULATION_HIGHSCALE,
                     work_flops=2e16, nodes=solver_nodes, uses_gpu=True,
                     parallel_fraction=0.99),
            JobPhase(name="analytics", workload=WorkloadClass.DATA_ANALYTICS,
                     work_flops=1e14, nodes=analytics_nodes,
                     memory_GB_per_node=400.0),
        ),
        coupling_bytes=50e9)]
    if tail:
        phases.append(JobPhase(
            name="post", workload=WorkloadClass.ML_INFERENCE,
            work_flops=5e14, nodes=2, uses_gpu=True, io_bytes=2e11))
    return Job(name=name, arrival_time=arrival, phases=phases)


def _jobs(mix: str, seed: int, n_jobs: int):
    jobs = synthetic_workload_mix(n_jobs, seed, mean_interarrival_s=2.0)
    if mix == "communities":
        for i, job in enumerate(jobs):
            job.user = ("remote-sensing", "health", "climate")[(i * 7) % 3]
    if mix == "coalloc":
        # Co-allocations arrive throughout the burst, so some queue behind
        # blocked modules and start from the middle of a walk.
        last = max(job.arrival_time for job in jobs)
        jobs += [_insitu(f"insitu-{k}", last * k / 8.0,
                         solver_nodes=2 + (seed + k) % 5,
                         analytics_nodes=1 + (seed + k) % 2, tail=k % 2 == 0)
                 for k in range(8)]
    return jobs


def _plan(faults: str, seed: int, targets):
    if faults == "none":
        return None
    crashes = FaultPlan.random(seed, targets, horizon_s=6000.0, n_crashes=6,
                               repair_s=900.0)
    if faults == "crashes":
        return crashes
    # Stragglers on low node ids (the allocator hands those out first, so
    # they hit running phases) and link degradations that fire and recover
    # while the backlog is still deep.
    keys = sorted(targets)
    explicit = [FaultSpec(kind=FaultKind.STRAGGLER, time=150.0 + 400.0 * k,
                          module=keys[(seed + k) % len(keys)], node=k % 2,
                          duration=600.0, magnitude=2.0 + k)
                for k in range(4)]
    explicit += [FaultSpec(kind=FaultKind.LINK_DEGRADE, time=90.0 + 700.0 * k,
                           module=keys[(seed + k + 1) % len(keys)],
                           duration=500.0, magnitude=4.0 + 3.0 * k)
                 for k in range(3)]
    specs = sorted([*crashes.specs, *explicit],
                   key=lambda s: (s.time, s.kind.value, s.module, s.node))
    return FaultPlan(seed=seed, specs=tuple(specs))


def _run(cls, queue_policy, placement, seed, mix, faults, n_jobs=40):
    system = small_msa_system() if mix == "coalloc" else deep_system()
    targets = {key: mod.n_nodes
               for key, mod in system.compute_modules().items()}
    plan = _plan(faults, seed, targets)
    sched = cls(system, queue_policy=queue_policy, placement=placement,
                fault_injector=None if plan is None else FaultInjector(plan))
    sched.submit_all(_jobs(mix, seed, n_jobs))
    if mix == "add_module":
        # A second booster joins while the burst is still arriving (the
        # last job arrives around t = 80): appends follow the revision bump.
        sched.sim.timeout(30.0 + 4.0 * seed).add_callback(
            lambda evt: system.add_module(
                "esb2", BoosterModule("ESB2", DEEP_ESB_NODE, 16)))
    return sched.run()


def _assert_same_outcome(queue_policy, placement, seed, mix, faults):
    expected = _run(FullWalkScheduler, queue_policy, placement, seed,
                    mix, faults)
    actual = _run(MsaScheduler, queue_policy, placement, seed, mix, faults)
    assert actual.allocations == expected.allocations
    assert actual.resilience == expected.resilience
    assert actual.summary() == expected.summary()
    assert actual.job_status == expected.job_status
    return actual


MIXES = ("plain", "communities", "coalloc", "add_module")
FAULTS = ("none", "crashes", "composed")
POLICY_PAIRS = [(q, p) for q in SchedulerPolicy for p in PlacementPolicy]
#: The tier-1 seed: every seeded mutant of the walk (memo kept across a
#: completion, crash, repair or ``add_module``; used under fair-share;
#: saturation applied to co-allocations) changes a schedule at this seed.
SLICE_SEED = 2


class TestDispatchEqualsFullWalk:
    @pytest.mark.parametrize("queue_policy,placement", POLICY_PAIRS)
    @pytest.mark.parametrize("mix", MIXES)
    def test_fixed_seed_slice(self, queue_policy, placement, mix):
        _assert_same_outcome(queue_policy, placement, SLICE_SEED, mix,
                             "composed")

    @pytest.mark.slow
    @pytest.mark.parametrize("queue_policy,placement", POLICY_PAIRS)
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_seed_sweep(self, queue_policy, placement, mix, faults):
        for seed in range(12):
            _assert_same_outcome(queue_policy, placement, seed, mix, faults)

    def test_scenarios_exercise_what_they_claim(self):
        """Crashes kill running phases, stragglers and degradations land,
        co-allocations queue and start, the added module gets used."""
        report = _assert_same_outcome(
            SchedulerPolicy.FCFS_BACKFILL, PlacementPolicy.MATCHMAKING,
            SLICE_SEED, "coalloc", "composed")
        kinds = {spec.kind for _, spec in report.resilience.faults_injected}
        assert {FaultKind.NODE_CRASH, FaultKind.STRAGGLER,
                FaultKind.LINK_DEGRADE} <= kinds
        assert report.resilience.total_retries > 0
        coalloc_starts = [a for a in report.allocations if "/" in a.phase_name]
        assert len(coalloc_starts) >= 16
        assert any(a.start > 0.0 and report.wait_times[a.job_name] > 0.0
                   for a in coalloc_starts)
        grown = _assert_same_outcome(
            SchedulerPolicy.FCFS_BACKFILL, PlacementPolicy.MATCHMAKING,
            SLICE_SEED, "add_module", "composed")
        assert any(a.module_key == "esb2" for a in grown.allocations)


# ---------------------------------------------------------------------------
# directed: what unsettles a walk without a non-append dispatch in between
# ---------------------------------------------------------------------------

def _prep(flops, nodes=1):
    return JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                    work_flops=flops, nodes=nodes, memory_GB_per_node=32.0)


def _train(nodes, flops=4e16, io_bytes=0.0):
    return JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                    work_flops=flops, nodes=nodes, uses_gpu=True,
                    parallel_fraction=0.99, io_bytes=io_bytes)


def _both_walks(system_factory, jobs_factory, plan=None,
                placement=PlacementPolicy.FIRST_FIT):
    """The same backfill run through both walks; where and when job ``j``
    started, one ``(module, start)`` per allocation."""
    out = []
    for cls in (FullWalkScheduler, MsaScheduler):
        sched = cls(system_factory(), placement=placement,
                    fault_injector=None if plan is None
                    else FaultInjector(plan))
        sched.submit_all(jobs_factory())
        out.append(sched.run())
    expected, actual = out
    assert actual.allocations == expected.allocations
    return [(a.module_key, a.start) for a in actual.allocations
            if a.job_name == "j"]


class TestSettledWalkInvalidators:
    def test_coallocated_start_unsettles_the_walk(self):
        """``j`` settles on the blocked ``dam``; a co-allocation (which
        ignores ``blocked``) then takes ``dam``'s last nodes, so at the next
        arrival ``j``'s first fit is the unblocked ``esb`` — a walk resumed
        past ``j`` would leave it queued."""
        def jobs():
            insitu = _insitu("C", 5.0, solver_nodes=2, analytics_nodes=3)
            hold = Job(name="H", arrival_time=3.0, phases=[JobPhase(
                name="spark", workload=WorkloadClass.DATA_ANALYTICS,
                work_flops=1e18, nodes=8, memory_GB_per_node=400.0)])
            return [Job(name="R0", arrival_time=0.0, phases=[_prep(1e19, 8)]),
                    Job(name="R1", arrival_time=1.0, phases=[_prep(1e19)]),
                    Job(name="R2", arrival_time=2.0, phases=[_prep(1e19, 5)]),
                    hold,
                    Job(name="j", arrival_time=4.0, phases=[_train(2)]),
                    insitu,
                    Job(name="A", arrival_time=6.0, phases=[_prep(1e13)])]

        assert _both_walks(
            lambda: small_msa_system(cm_nodes=8, esb_nodes=12, dam_nodes=4),
            jobs) == [("esb", 6.0)]

    def test_link_degrade_unsettles_the_walk(self):
        """The head's ``blocked`` module flips from ``esb`` to ``dam`` when
        the ESB link degrades (its 4 TB input crosses the federation), so at
        the next arrival the ``esb`` that ``j`` settled on is no longer
        held — a walk resumed past ``j`` would leave it queued."""
        def jobs():
            return [Job(name="R0", arrival_time=0.0, phases=[_prep(1e19, 3)]),
                    Job(name="H", arrival_time=1.0, phases=[
                        _prep(2e13), _train(8, io_bytes=4e12)]),
                    Job(name="R1", arrival_time=2.0, phases=[_prep(1e19)]),
                    Job(name="R2", arrival_time=3.0,
                        phases=[_train(4, flops=1e21)]),
                    Job(name="j", arrival_time=1000.0, phases=[_train(4)]),
                    Job(name="A", arrival_time=3000.0, phases=[_prep(1e13)])]

        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.LINK_DEGRADE, time=2000.0, module="esb",
            duration=1e5, magnitude=12.0),))
        assert _both_walks(
            lambda: small_msa_system(cm_nodes=4, esb_nodes=8, dam_nodes=4),
            jobs, plan) == [("esb", 3000.0)]

    def test_queued_coallocation_unsettles_the_walk(self):
        """Co-allocation is greedy per component, so it can start *because*
        free counts fell.  Both components of ``j`` prefer ``esb``: with 10
        nodes free the solver takes 8, the trainer finds 2 < 4 and refuses
        the 1-node ``dam`` (patience) — ``j`` waits.  ``S`` then takes 4
        ``esb`` nodes; at the next arrival the solver no longer fits there,
        falls to ``cm``, and the trainer gets its 4 — a walk resumed past
        ``j`` would leave it queued."""
        def jobs():
            twin = CoAllocatedPhase(name="solve+train", components=(
                JobPhase(name="solver",
                         workload=WorkloadClass.SIMULATION_HIGHSCALE,
                         work_flops=2e16, nodes=8, parallel_fraction=0.99),
                _train(4)))
            return [Job(name="j", arrival_time=0.0, phases=[twin]),
                    Job(name="S", arrival_time=1.0,
                        phases=[_train(4, flops=1e21)]),
                    Job(name="A", arrival_time=2.0, phases=[_prep(1e13)])]

        assert _both_walks(
            lambda: small_msa_system(cm_nodes=8, esb_nodes=10, dam_nodes=1),
            jobs, placement=PlacementPolicy.MATCHMAKING
        ) == [("cm", 2.0), ("esb", 2.0)]


# ---------------------------------------------------------------------------
# counted work: what one event may cost
# ---------------------------------------------------------------------------

def _gpu_job(name, arrival):
    return Job(name=name, arrival_time=arrival,
               phases=[_train(8, flops=1e16)])


class TestCountedWork:
    def _settled_backlog(self):
        """An 8-node booster held by one job, 50 more queued for it: every
        queued state holds out for ``esb`` (patience), ``cm`` and ``dam``
        stay free and unblocked, so the walk is settled but not saturated."""
        system = small_msa_system()
        sched = MsaScheduler(system)
        sched.submit(_gpu_job("running", 0.0))
        sched.submit_all([_gpu_job(f"queued-{i}", 1.0 + i) for i in range(50)])
        run_until(sched.sim, 60.0)
        assert len(sched._ready) == 50 and len(sched._running) == 1
        assert sched._settled == (50, {"esb"})
        return sched

    def test_arrival_into_settled_backlog_scores_one_state(self):
        sched = self._settled_backlog()
        before = sched.states_scored
        sched.submit(_gpu_job("late", 10.0))      # delay from now: t = 70
        run_until(sched.sim, 80.0)
        assert len(sched._ready) == 51
        assert sched.states_scored - before == 1
        assert sched._settled == (51, {"esb"})

    def test_phase_done_scores_from_index_zero(self):
        sched = self._settled_backlog()
        (record,) = sched._running
        before = sched.states_scored
        run_until(sched.sim, record.end)
        # The head takes the freed booster; the other 49 are re-scored.
        assert [r.state.job.name for r in sched._running] == ["queued-0"]
        assert sched.states_scored - before == 50
        report = sched.run()
        assert len(report.completion_times) == 51

    def test_saturated_backlog_admits_arrivals_unscored(self):
        """Once every module is blocked, a single-module phase further down
        cannot start: arrivals join the queue without being scored."""
        system = deep_system()
        sched = MsaScheduler(system)
        sched.submit_all(synthetic_workload_mix(100, 0,
                                                mean_interarrival_s=1.0))
        run_until(sched.sim, 40.0)
        settled, blocked = sched._settled
        assert blocked == set(system.compute_modules())
        assert settled == len(sched._ready) >= 10
        assert any(m.free_nodes for m in system.compute_modules().values())
        before = sched.states_scored
        run_until(sched.sim, 60.0)
        assert len(sched._ready) >= settled + 10
        assert sched.states_scored == before

    def test_table_invalidation_drops_the_settled_walk(self):
        sched = self._settled_backlog()
        sched._on_link_degrade(FaultSpec(
            kind=FaultKind.LINK_DEGRADE, time=0.0, module="esb",
            duration=5.0, magnitude=2.0))
        assert sched._settled is None
        before = sched.states_scored
        sched.submit(_gpu_job("late", 1.0))
        run_until(sched.sim, sched.sim.now + 2.0)
        assert sched.states_scored - before == 51    # walked from index 0
        assert sched._settled == (51, {"esb"})
        run_until(sched.sim, sched.sim.now + 10.0)    # link recovers
        assert sched._settled is None


class TestDuplicateJobName:
    def test_submit_rejects_a_name_already_in_use(self):
        sched = MsaScheduler(deep_system())
        sched.submit(_gpu_job("x", 0.0))
        with pytest.raises(ValueError, match="duplicate job name 'x'"):
            sched.submit(_gpu_job("x", 5.0))
        report = sched.run()
        assert list(report.completion_times) == ["x"]
