"""The scheduler's memoized placement tables.

A phase's matchmaking score is a pure function of (phase, module, n_alloc,
storage bandwidth, previous module, active link-degrade factors), so the
scheduler computes it once per phase and re-checks only feasibility.  These
tests pin the table against the per-call loops it replaced (kept here as
the reference), its invalidation rules, and the evaluation count.
"""

import itertools
from unittest import mock

import pytest

import repro.core.scheduler as scheduler_mod
from repro.core import (
    BoosterModule,
    CoAllocatedPhase,
    DEEP_ESB_NODE,
    Job,
    JobPhase,
    MSASystem,
    MsaScheduler,
    StorageModule,
    WorkloadClass,
    deep_system,
    juwels_system,
    small_msa_system,
    synthetic_workload_mix,
)
from repro.core.jobs import phase_runtime
from repro.core.scheduler import PlacementTable, rank_placements
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

IO_GBPS = 80.0


# ---------------------------------------------------------------------------
# reference: the seed's per-call scoring loops, verbatim in behaviour
# ---------------------------------------------------------------------------

def _ref_candidates(system, phase):
    return [(key, module, min(phase.nodes, module.n_nodes))
            for key, module in system.compute_modules().items()
            if module.n_nodes > 0]


def _ref_score(system, phase, key, module, n, prev_module, degraded,
               io_GBps=IO_GBPS):
    t = phase_runtime(phase, module, n, io_GBps=io_GBps)
    if prev_module is not None and prev_module != key:
        xfer = system.inter_module_transfer_time(
            prev_module, key, phase.io_bytes)
        if degraded:
            xfer *= max(max(degraded.get(prev_module) or [1.0]),
                        max(degraded.get(key) or [1.0]))
        t += xfer
    return t


def _ref_choose_order(system, phase, prev_module, degraded, io_GBps=IO_GBPS):
    """``_choose``: every candidate sorted by (score, key)."""
    scored = [(_ref_score(system, phase, k, m, n, prev_module, degraded,
                          io_GBps), k, m, n)
              for k, m, n in _ref_candidates(system, phase)]
    scored.sort(key=lambda s: (s[0], s[1]))
    return scored


def _ref_blocked(system, phase, prev_module, degraded):
    """``_blocked_modules``: first strict minimum in module order."""
    best_key, best_t = None, float("inf")
    for key, module, n in _ref_candidates(system, phase):
        t = _ref_score(system, phase, key, module, n, prev_module, degraded)
        if t < best_t:
            best_t, best_key = t, key
    return {best_key} if best_key is not None else set()


def _ref_coalloc_pick(system, component, taken):
    """One component of ``_choose_coalloc``: first strict minimum among the
    modules with room, plus the best score anywhere."""
    best, best_anywhere = None, float("inf")
    for key, module, n in _ref_candidates(system, component):
        t = phase_runtime(component, module, n, io_GBps=IO_GBPS)
        best_anywhere = min(best_anywhere, t)
        if module.free_nodes - taken.get(key, 0) < n:
            continue
        if best is None or t < best[0]:
            best = (t, key, module, n)
    return best, best_anywhere


def _degrade_states(keys):
    yield {}
    yield {keys[0]: [2.5]}
    yield {keys[-1]: [1.5, 4.0], keys[0]: [3.0]}


SYSTEMS = {"deep": deep_system, "juwels": juwels_system,
           "small": small_msa_system}


# ---------------------------------------------------------------------------
# (a) every row equals a fresh score; both tie-break orders match
# ---------------------------------------------------------------------------

class TestTableEqualsPerCallScoring:
    @pytest.mark.parametrize("system_name", sorted(SYSTEMS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_bitwise_equal_fresh_scores(self, system_name, seed):
        system = SYSTEMS[system_name]()
        keys = list(system.compute_modules())
        phases = [phase for job in synthetic_workload_mix(24, seed=seed)
                  for phase in job.phases]
        checked = 0
        for phase, prev, degraded in itertools.product(
                phases, [None, *keys], _degrade_states(keys)):
            table = PlacementTable(system, phase, IO_GBPS,
                                   prev_module=prev, degraded=degraded)
            expected = _ref_choose_order(system, phase, prev, degraded)
            # == on floats: bit-for-bit, not approx.
            assert list(table.by_key) == expected
            assert table.best_score == min(s[0] for s in expected)
            assert table.blocked == _ref_blocked(system, phase, prev,
                                                 degraded)
            assert sorted(table.by_order, key=lambda r: r[1]) == \
                sorted(expected, key=lambda r: r[1])
            checked += len(expected)
        assert checked >= len(phases) * len(keys)

    def test_tie_break_orders_differ_like_the_old_loops(self):
        # Two identical boosters, inserted "b" before "a": every score
        # ties.  _choose broke ties on the key, _blocked_modules and the
        # co-allocation pick on module order.
        system = MSASystem("twins")
        system.add_module("b", BoosterModule("B", DEEP_ESB_NODE, 8))
        system.add_module("a", BoosterModule("A", DEEP_ESB_NODE, 8))
        system.add_module("sssm", StorageModule("S", capacity_PB=1.0))
        phase = JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                         work_flops=1e16, nodes=4, uses_gpu=True)
        table = PlacementTable(system, phase, IO_GBPS)
        assert table.by_key[0][0] == table.by_key[1][0]
        assert [row[1] for row in table.by_key] == ["a", "b"]
        assert [row[1] for row in table.by_order] == ["b", "a"]
        assert list(table.by_key) == _ref_choose_order(system, phase, None, {})
        assert table.blocked == _ref_blocked(system, phase, None, {}) == {"b"}

    @pytest.mark.parametrize("taken", [{}, {"b": 6}, {"a": 8}, {"esb": 7},
                                       {"a": 8, "b": 8, "esb": 8}])
    def test_coalloc_pick_matches_old_loop(self, taken):
        system = MSASystem("twins+1")
        system.add_module("b", BoosterModule("B", DEEP_ESB_NODE, 8))
        system.add_module("esb", BoosterModule("E", DEEP_ESB_NODE, 12))
        system.add_module("a", BoosterModule("A", DEEP_ESB_NODE, 8))
        for nodes in (2, 4, 8, 12):
            component = JobPhase(
                name="solver", workload=WorkloadClass.SIMULATION_HIGHSCALE,
                work_flops=1e17, nodes=nodes, uses_gpu=True)
            table = PlacementTable(system, component, IO_GBPS)
            picked = next(
                (row for row in table.by_order
                 if row[2].free_nodes - taken.get(row[1], 0) >= row[3]), None)
            best, best_anywhere = _ref_coalloc_pick(system, component, taken)
            assert picked == best
            assert table.best_score == best_anywhere

    def test_standalone_ranking_pins_allocation_size(self, small_system):
        phase = JobPhase(name="serve", workload=WorkloadClass.ML_INFERENCE,
                         work_flops=1e12, nodes=1, uses_gpu=True)
        ranked = rank_placements(small_system, phase, n_nodes=4)
        # The 2-node DAM cannot hold 4 nodes; scores use exactly 4.
        assert {key for _, key, _ in ranked} == {"cm", "esb"}
        for t, key, module in ranked:
            assert t == phase_runtime(phase, module, 4, io_GBps=40.0)
        with pytest.raises(ValueError):
            rank_placements(small_system, phase, n_nodes=0)


# ---------------------------------------------------------------------------
# (c) invalidation
# ---------------------------------------------------------------------------

def _waiting_train_run(monkeypatch, plan):
    """A two-phase job whose GPU phase queues behind an ESB hog while
    single-node ticks keep the dispatcher running; records every table
    built for the waiting phase as (sim time, degrade factors, table)."""
    system = small_msa_system(cm_nodes=4, esb_nodes=8, dam_nodes=0)
    hog = Job(name="hog", phases=[JobPhase(
        name="hold", workload=WorkloadClass.ML_TRAINING, work_flops=2e18,
        nodes=8, uses_gpu=True, parallel_fraction=0.99)])
    waiter = Job(name="w", phases=[
        JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                 work_flops=1e12, nodes=1),
        JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                 work_flops=4e16, nodes=8, uses_gpu=True,
                 parallel_fraction=0.99, io_bytes=4e12),
    ])
    ticks = [Job(name=f"tick-{t}", arrival_time=float(t), phases=[JobPhase(
        name="tick", workload=WorkloadClass.SIMULATION_LOWSCALE,
        work_flops=1e9, nodes=1)]) for t in (500, 1500, 2500)]
    sched = MsaScheduler(system, fault_injector=FaultInjector(plan))
    builds = []

    def recording(system, phase, io_GBps, **kwargs):
        table = PlacementTable(system, phase, io_GBps, **kwargs)
        if phase.name == "train":
            degraded = {k: list(v) for k, v in
                        (kwargs.get("degraded") or {}).items()}
            builds.append((sched.sim.now, degraded, table))
        return table

    monkeypatch.setattr(scheduler_mod, "PlacementTable", recording)
    sched.submit_all([hog, waiter, *ticks])
    report = sched.run()
    return sched, waiter.phases[1], report, builds


class TestInvalidation:
    def test_table_rebuilt_on_degrade_fire_and_recover(self, monkeypatch):
        plan = FaultPlan(seed=0, specs=(FaultSpec(
            kind=FaultKind.LINK_DEGRADE, time=1000.0, module="esb",
            duration=1000.0, magnitude=4.0),))
        sched, train, report, builds = _waiting_train_run(monkeypatch, plan)
        # Built when prep finishes, again at the first dispatch after the
        # link degrades (the t=1500 tick) and again after it recovers (the
        # t=2500 tick) — and not at the t=500 tick, when nothing changed.
        assert len(builds) == 3 and builds[0][0] < 500.0
        assert [(t, d) for t, d, _ in builds[1:]] == [
            (1500.0, {"esb": [4.0]}), (2500.0, {})]
        for _, degraded, table in builds:
            assert list(table.by_key) == _ref_choose_order(
                sched.system, train, "cm", degraded, sched._io_GBps)
        healthy, degraded, recovered = (b[2] for b in builds)
        assert degraded.by_key != healthy.by_key
        assert recovered.by_key == healthy.by_key
        assert {a.module_key for a in report.allocations
                if a.phase_name == "train"} == {"esb"}

    def test_no_rebuild_without_degrade(self, monkeypatch):
        _, _, _, builds = _waiting_train_run(monkeypatch, FaultPlan.none())
        assert len(builds) == 1

    def test_table_dropped_when_phase_advances(self, small_system):
        job = Job(name="two", phases=[
            JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                     work_flops=1e12, nodes=1),
            JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                     work_flops=1e15, nodes=2, uses_gpu=True),
        ])
        sched = MsaScheduler(small_system)
        sched.submit(job)
        report = sched.run()
        assert [a.phase_name for a in report.allocations] == ["prep", "train"]
        assert sched._tables == {}

    def test_added_module_is_seen_by_later_placements(self, small_system,
                                                      gpu_job):
        sched = MsaScheduler(small_system)
        sched.submit(gpu_job("first", arrival=0.0, nodes=8))
        sched.submit(gpu_job("second", arrival=10.0, nodes=8))
        sched.sim.timeout(5.0).add_callback(
            lambda evt: small_system.add_module(
                "esb2", BoosterModule("ESB2", DEEP_ESB_NODE, 8)))
        report = sched.run()
        placed = {a.job_name: a.module_key for a in report.allocations}
        assert placed == {"first": "esb", "second": "esb2"}
        assert "esb2" in report.module_utilisation


# ---------------------------------------------------------------------------
# (d) evaluation count
# ---------------------------------------------------------------------------

class TestEvaluationCount:
    def _burst(self, jobs, system, injector=None):
        with mock.patch.object(scheduler_mod, "phase_runtime",
                               wraps=scheduler_mod.phase_runtime) as counted:
            sched = MsaScheduler(system, fault_injector=injector)
            sched.submit_all(jobs)
            report = sched.run()
        entries = sum(len(p.components) if isinstance(p, CoAllocatedPhase)
                      else 1 for job in jobs for p in job.phases)
        return counted.call_count, entries, report

    def test_hundred_job_burst_scores_each_phase_once(self):
        system = deep_system()
        n_modules = len(system.compute_modules())
        targets = {k: m.n_nodes for k, m in system.compute_modules().items()}
        plan = FaultPlan.random(0, targets, horizon_s=36000.0, n_crashes=6,
                                repair_s=1200.0)
        jobs = synthetic_workload_mix(100, seed=0, mean_interarrival_s=1.0)
        calls, entries, report = self._burst(
            jobs, system, FaultInjector(plan))
        assert report.resilience.total_retries > 0    # requeues re-use tables
        assert calls <= n_modules * entries
        assert calls / len(report.allocations) <= n_modules
        # Deterministic: a second identical burst counts the same.
        again, _, _ = self._burst(
            synthetic_workload_mix(100, seed=0, mean_interarrival_s=1.0),
            deep_system(), FaultInjector(plan))
        assert again == calls

    def test_coallocated_components_scored_once_each(self):
        component = dict(work_flops=1e16, parallel_fraction=0.99)
        jobs = [Job(name=f"insitu-{i}", phases=[CoAllocatedPhase(
            name="pair", components=(
                JobPhase(name="solver", nodes=6, uses_gpu=True,
                         workload=WorkloadClass.SIMULATION_HIGHSCALE,
                         **component),
                JobPhase(name="analytics", nodes=2, memory_GB_per_node=400.0,
                         workload=WorkloadClass.DATA_ANALYTICS, **component),
            ))]) for i in range(6)]
        system = small_msa_system()
        calls, entries, report = self._burst(jobs, system)
        assert entries == 12 and len(report.allocations) == 12
        assert calls == len(system.compute_modules()) * entries
