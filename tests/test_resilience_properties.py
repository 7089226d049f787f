"""Property tests for the fault-injection subsystem.

Each seed drives a different deterministic fault plan against the small
MSA system and checks invariants that must hold for *every* plan:

* **no job lost** — every submitted job ends in a terminal state
  (completed or permanently failed); nothing stays pending/requeued,
* **no node double-booked** — per (module, node), allocation intervals
  never overlap, even across crash/repair/requeue cycles,
* **retried jobs terminate** — attempts are bounded by the retry policy,
* **backoff monotone** — successive requeue delays never shrink,
* **conservation** — all nodes free after the run, utilisation in [0, 1].

The default sweep keeps CI fast; the 200-seed sweep runs under
``-m slow`` (see ``.github/workflows/ci.yml``).
"""

import numpy as np
import pytest

from repro.core import JobStatus, schedule_workload, synthetic_workload_mix
from repro.resilience import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    RetryPolicy,
)
from tests.test_resilience_retry_edges import delays

RETRY = RetryPolicy(max_retries=3, base_delay_s=20.0, seed=0)


def retries_per_job(res) -> dict[str, int]:
    """Requeues per job name in a :class:`ResilienceReport`."""
    out: dict[str, int] = {}
    for rq in res.requeues:
        out[rq.job_name] = out.get(rq.job_name, 0) + 1
    return out


def backoff_schedule(res, job_name: str) -> list[float]:
    """Backoff delays a job actually received, in attempt order."""
    return [rq.backoff_s for rq in
            sorted((r for r in res.requeues if r.job_name == job_name),
                   key=lambda r: r.attempt)]


def _run_faulted(seed, make_small_system, make_fault_plan,
                 retry_policy=RETRY):
    """One seeded run: derive plan shape from the seed, schedule, report."""
    rng = np.random.default_rng(seed)
    plan = make_fault_plan(
        seed=seed,
        horizon_s=float(rng.uniform(1800.0, 7200.0)),
        n_crashes=int(rng.integers(0, 4)),
        n_stragglers=int(rng.integers(0, 3)),
        n_degrades=int(rng.integers(0, 2)),
        repair_s=float(rng.uniform(120.0, 900.0)),
        slowdown=float(rng.uniform(1.5, 4.0)),
    )
    system = make_small_system()
    jobs = synthetic_workload_mix(n_jobs=int(rng.integers(4, 10)), seed=seed)
    report = schedule_workload(system, jobs,
                               fault_injector=FaultInjector(plan),
                               retry_policy=retry_policy)
    return system, jobs, report


def _assert_invariants(system, jobs, report, retry_policy=RETRY):
    # No job lost: every submitted job is terminal, and the terminal sets
    # partition the workload.
    assert set(report.job_status) == {j.name for j in jobs}
    assert all(s.terminal for s in report.job_status.values())
    completed = set(report.completion_times)
    failed = set(report.failed_jobs)
    assert completed | failed == {j.name for j in jobs}
    assert not completed & failed

    # No node double-booked: per (module, node), intervals are disjoint.
    by_node: dict[tuple, list] = {}
    for alloc in report.allocations:
        assert alloc.end >= alloc.start
        for node in alloc.nodes:
            by_node.setdefault((alloc.module_key, node), []).append(
                (alloc.start, alloc.end))
        # And no allocation holds the same node twice.
        assert len(set(alloc.nodes)) == len(alloc.nodes)
    for intervals in by_node.values():
        intervals.sort()
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1, f"overlap: [{s1},{e1}) and [{s2},{e2})"

    # Retried jobs eventually terminal with bounded attempts.
    res = report.resilience
    assert res is not None
    for job_name, retries in retries_per_job(res).items():
        assert retries <= retry_policy.max_retries
        assert report.job_status[job_name].terminal

    # Backoff monotone non-decreasing per job.
    for job_name in retries_per_job(res):
        schedule = backoff_schedule(res, job_name)
        assert all(b >= a for a, b in zip(schedule, schedule[1:])), schedule
        assert all(d >= 0 for d in schedule)

    # Conservation: every node back in the free pool, sane accounting.
    for module in system.compute_modules().values():
        assert module.free_nodes == module.n_nodes
        assert not module.down_nodes
    for util in report.module_utilisation.values():
        assert 0.0 <= util <= 1.0
    assert res.lost_node_seconds >= 0.0
    assert res.mttr_s is None or res.mttr_s >= 0.0


@pytest.mark.parametrize("seed", range(30))
def test_invariants_small_sweep(seed, make_small_system, make_fault_plan):
    system, jobs, report = _run_faulted(seed, make_small_system,
                                        make_fault_plan)
    _assert_invariants(system, jobs, report)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(30, 250))
def test_invariants_full_sweep(seed, make_small_system, make_fault_plan):
    system, jobs, report = _run_faulted(seed, make_small_system,
                                        make_fault_plan)
    _assert_invariants(system, jobs, report)


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_fault_runs_replay_deterministically(seed, make_small_system,
                                             make_fault_plan):
    _, _, r1 = _run_faulted(seed, make_small_system, make_fault_plan)
    _, _, r2 = _run_faulted(seed, make_small_system, make_fault_plan)
    assert r1.makespan == r2.makespan
    assert r1.completion_times == r2.completion_times
    assert r1.job_status == r2.job_status
    assert len(r1.resilience.failures) == len(r2.resilience.failures)


def test_no_retry_policy_fails_permanently(make_small_system, gpu_job):
    """With retries disabled, a crashed phase's job fails terminally."""
    plan = FaultPlan.random(seed=1, targets={"esb": 8}, horizon_s=3600.0,
                            n_crashes=8, repair_s=1e7)
    report = schedule_workload(make_small_system(), [gpu_job(nodes=8)],
                               fault_injector=FaultInjector(plan),
                               retry_policy=RetryPolicy(max_retries=0))
    if report.failed_jobs:  # a crash landed on the running phase
        assert report.job_status["train"] is JobStatus.FAILED
        assert retries_per_job(report.resilience).get("train", 0) == 0


def test_zero_cost_when_off(make_small_system):
    """Injector with an empty plan must not perturb the schedule at all."""
    jobs = synthetic_workload_mix(n_jobs=10, seed=3)
    plain = schedule_workload(make_small_system(),
                              synthetic_workload_mix(n_jobs=10, seed=3))
    armed = schedule_workload(make_small_system(), jobs,
                              fault_injector=FaultInjector(FaultPlan.none()),
                              retry_policy=RETRY)
    assert plain.makespan == armed.makespan
    assert plain.completion_times == armed.completion_times
    assert [(a.job_name, a.module_key, a.nodes, a.start, a.end)
            for a in plain.allocations] == \
           [(a.job_name, a.module_key, a.nodes, a.start, a.end)
            for a in armed.allocations]
    assert plain.energy_total_joules == armed.energy_total_joules


class TestRetryPolicyProperties:
    @pytest.mark.parametrize("seed", range(20))
    def test_delays_monotone_for_random_policies(self, seed):
        rng = np.random.default_rng(seed)
        policy = RetryPolicy(
            max_retries=int(rng.integers(1, 8)),
            base_delay_s=float(rng.uniform(1.0, 120.0)),
            seed=seed,
        )
        schedule = delays(policy, key="job")
        assert len(schedule) == policy.max_retries
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))
        assert all(0 < d <= policy.max_delay_s for d in schedule)

    def test_jitter_depends_on_key_not_call_order(self):
        policy = RetryPolicy(max_retries=4)
        assert delays(policy, "a") == delays(policy, "a")
        assert delays(policy, "a") != delays(policy, "b")


class TestFaultPlanProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_plans_are_reproducible_and_sorted(self, seed, make_fault_plan):
        p1 = make_fault_plan(seed=seed, n_crashes=3, n_stragglers=2,
                             n_degrades=1)
        p2 = make_fault_plan(seed=seed, n_crashes=3, n_stragglers=2,
                             n_degrades=1)
        assert p1.specs == p2.specs
        times = [s.time for s in p1]
        assert times == sorted(times)

    def test_different_seeds_differ(self, make_fault_plan):
        assert make_fault_plan(seed=0, n_crashes=3).specs != \
               make_fault_plan(seed=1, n_crashes=3).specs

    def test_parse_grammar(self):
        plan = FaultPlan.parse(
            "seed=7,crash=cm:2,straggler=esb:1,bitflip=0.05",
            targets={"cm": 8, "esb": 8})
        assert plan.seed == 7
        assert len(plan.of_kind(FaultKind.NODE_CRASH)) == 2
        assert len(plan.of_kind(FaultKind.STRAGGLER)) == 1
        assert plan.message_bitflip_probability == 0.05
