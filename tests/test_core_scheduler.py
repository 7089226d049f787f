"""The heterogeneous scheduler and the Fig. 2 (E2) placement experiment.

System and job construction comes from the shared fixtures in
``conftest.py`` (``small_system`` / ``make_small_system``, ``gpu_job``,
``cpu_job``).
"""

import pytest

from repro.core import (
    ClusterModule,
    BoosterModule,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    Job,
    JobPhase,
    MSASystem,
    MsaScheduler,
    PlacementPolicy,
    SchedulerPolicy,
    StorageModule,
    WorkloadClass,
    homogeneous_system,
    schedule_workload,
    synthetic_workload_mix,
)


class TestBasicScheduling:
    def test_single_job_completes(self, small_system, gpu_job):
        report = schedule_workload(small_system, [gpu_job()])
        assert len(report.completion_times) == 1
        assert report.makespan > 0

    def test_a_fault_free_schedule_publishes_zero_resilience_gauges(
            self, small_system, gpu_job):
        # The scheduler's fault ledger is published whether or not an
        # injector is armed; without one every count is zero.
        from repro import telemetry
        with telemetry.capture() as (_, registry):
            schedule_workload(small_system, [gpu_job()])
        gauges = {name: inst.value for name in ("resilience_faults_injected",
                                                "resilience_retries")
                  for _, inst in registry.members(name)}
        assert gauges == {"resilience_faults_injected": 0,
                          "resilience_retries": 0}

    def test_matchmaking_places_gpu_job_on_booster(self, small_system, gpu_job):
        report = schedule_workload(small_system, [gpu_job()])
        assert report.allocations[0].module_key == "esb"

    def test_matchmaking_places_cpu_job_on_cluster(self, small_system, cpu_job):
        report = schedule_workload(small_system, [cpu_job()])
        assert report.allocations[0].module_key == "cm"

    def test_analytics_lands_on_dam(self, small_system):
        job = Job(name="spark", phases=[JobPhase(
            name="pipeline", workload=WorkloadClass.DATA_ANALYTICS,
            work_flops=1e14, nodes=2, memory_GB_per_node=400.0)])
        report = schedule_workload(small_system, [job])
        assert report.allocations[0].module_key == "dam"

    def test_multiphase_job_spans_modules(self, small_system):
        job = Job(name="pipeline", phases=[
            JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                     work_flops=1e14, nodes=2),
            JobPhase(name="train", workload=WorkloadClass.ML_TRAINING,
                     work_flops=1e17, nodes=8, uses_gpu=True,
                     uses_tensor_cores=True, parallel_fraction=0.99),
        ])
        report = schedule_workload(small_system, [job])
        modules = [a.module_key for a in report.allocations]
        assert modules == ["cm", "esb"]

    def test_phases_run_in_order(self, small_system):
        job = Job(name="j", phases=[
            JobPhase(name=f"s{i}", workload=WorkloadClass.SIMULATION_LOWSCALE,
                     work_flops=1e13, nodes=1) for i in range(3)])
        report = schedule_workload(small_system, [job])
        allocs = sorted(report.allocations, key=lambda a: a.phase_index)
        for earlier, later in zip(allocs, allocs[1:]):
            assert later.start >= earlier.end

    def test_all_nodes_released_at_end(self, small_system):
        sched = MsaScheduler(small_system)
        sched.submit_all(synthetic_workload_mix(n_jobs=8, seed=0))
        sched.run()
        for module in small_system.compute_modules().values():
            assert module.free_nodes == module.n_nodes


class TestQueueing:
    def test_contention_creates_waits(self, small_system, gpu_job):
        jobs = [gpu_job(f"g{i}", arrival=0.0, nodes=8) for i in range(3)]
        report = schedule_workload(small_system, jobs)
        waits = sorted(report.wait_times.values())
        assert waits[0] == 0.0
        assert waits[-1] > 0.0

    def test_patience_keeps_training_off_cpu_cluster(self, small_system, gpu_job):
        # Even with the booster saturated, DL training waits rather than
        # running 100x slower on the CPU cluster.
        jobs = [gpu_job(f"g{i}", arrival=0.0, nodes=8) for i in range(4)]
        report = schedule_workload(small_system, jobs)
        for alloc in report.allocations:
            assert alloc.module_key != "cm"

    def test_backfill_lets_small_cpu_jobs_through(self, small_system,
                                                  gpu_job, cpu_job):
        jobs = [gpu_job("g0", nodes=8), gpu_job("g1", nodes=8),
                cpu_job("c0")]
        report = schedule_workload(
            small_system, jobs, queue_policy=SchedulerPolicy.FCFS_BACKFILL)
        # The CPU job must not wait behind the queued GPU job.
        assert report.wait_times["c0"] == 0.0

    def test_strict_fcfs_blocks_later_jobs(self, small_system,
                                           gpu_job, cpu_job):
        jobs = [gpu_job("g0", nodes=8), gpu_job("g1", nodes=8),
                cpu_job("c0")]
        report = schedule_workload(
            small_system, jobs, queue_policy=SchedulerPolicy.FCFS)
        assert report.wait_times["c0"] > 0.0

    def test_first_fit_ignores_matching(self, small_system, gpu_job):
        report = schedule_workload(
            small_system, [gpu_job()], placement=PlacementPolicy.FIRST_FIT)
        # Alphabetically first module with room is "cm".
        assert report.allocations[0].module_key == "cm"


class TestReport:
    def test_utilisation_in_unit_range(self, small_system):
        report = schedule_workload(small_system,
                                   synthetic_workload_mix(n_jobs=6, seed=4))
        for util in report.module_utilisation.values():
            assert 0.0 <= util <= 1.0

    def test_energy_positive_and_split(self, small_system):
        report = schedule_workload(small_system,
                                   synthetic_workload_mix(n_jobs=6, seed=4))
        assert report.energy_busy_joules > 0
        assert report.energy_idle_joules > 0
        assert report.energy_total_joules == pytest.approx(
            report.energy_busy_joules + report.energy_idle_joules)

    def test_summary_renders(self, small_system, gpu_job):
        report = schedule_workload(small_system, [gpu_job()])
        text = report.summary()
        assert "makespan" in text and "util" in text

    def test_mean_turnaround_subtracts_arrival(self, small_system, cpu_job):
        # Staggered arrivals on an idle system: every job starts on arrival,
        # so turnaround is its runtime — not its absolute completion time.
        jobs = [cpu_job(f"j{i}", arrival=10_000.0 * i, nodes=2)
                for i in range(3)]
        report = schedule_workload(small_system, jobs)
        runtimes = [a.duration for a in report.allocations]
        assert report.arrival_times == {f"j{i}": 10_000.0 * i
                                        for i in range(3)}
        assert report.mean_wait == 0.0
        assert report.mean_turnaround == pytest.approx(
            sum(runtimes) / len(runtimes))
        assert report.mean_turnaround < min(
            t for name, t in report.completion_times.items() if name != "j0")

    def test_deterministic_schedule(self, make_small_system):
        jobs = synthetic_workload_mix(n_jobs=10, seed=9)
        r1 = schedule_workload(make_small_system(), jobs)
        r2 = schedule_workload(make_small_system(),
                               synthetic_workload_mix(n_jobs=10, seed=9))
        assert r1.makespan == r2.makespan
        assert r1.completion_times == r2.completion_times


class TestFig2Experiment:
    """The E2 shape: MSA beats both homogeneous baselines on mixed work."""

    def _jobs(self):
        return synthetic_workload_mix(n_jobs=18, seed=7,
                                      mean_interarrival_s=120.0)

    def _msa(self):
        sys = MSASystem("MSA")
        sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 64))
        sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 61))
        sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 16))
        sys.add_module("sssm", StorageModule("SSSM", capacity_PB=2.0))
        return sys

    def test_msa_beats_cluster_only_on_makespan_and_energy(self):
        msa = schedule_workload(self._msa(), self._jobs())
        cluster = schedule_workload(
            homogeneous_system("cluster-only", DEEP_CM_NODE, 141),
            self._jobs())
        assert msa.makespan < cluster.makespan / 5
        assert msa.energy_total_joules < cluster.energy_total_joules

    def test_msa_beats_booster_only_on_makespan(self):
        msa = schedule_workload(self._msa(), self._jobs())
        booster = schedule_workload(
            homogeneous_system("booster-only", DEEP_ESB_NODE, 141,
                               as_booster=True),
            self._jobs())
        assert msa.makespan < booster.makespan


class TestFairShare:
    """Fair-share across user communities (the multi-community centre)."""

    def _jobs(self, gpu_job):
        # One community floods the queue; another submits a single job last.
        flood = [gpu_job(f"rs-{i}", nodes=8) for i in range(4)]
        for job in flood:
            job.user = "remote-sensing"
        latecomer = gpu_job("health-0", nodes=8)
        latecomer.user = "health"
        return flood + [latecomer]

    def test_fair_share_boosts_underserved_community(self, make_small_system,
                                                     gpu_job):
        fcfs = schedule_workload(make_small_system(), self._jobs(gpu_job),
                                 queue_policy=SchedulerPolicy.FCFS_BACKFILL)
        fair = schedule_workload(make_small_system(), self._jobs(gpu_job),
                                 queue_policy=SchedulerPolicy.FAIR_SHARE)
        assert fair.wait_times["health-0"] < fcfs.wait_times["health-0"]

    def test_fair_share_order_within_community_preserved(self, small_system,
                                                         gpu_job):
        report = schedule_workload(small_system, self._jobs(gpu_job),
                                   queue_policy=SchedulerPolicy.FAIR_SHARE)
        starts = {a.job_name: a.start for a in report.allocations}
        assert starts["rs-0"] <= starts["rs-1"] <= starts["rs-2"]

    def test_fair_share_completes_everything(self, small_system, gpu_job):
        report = schedule_workload(small_system, self._jobs(gpu_job),
                                   queue_policy=SchedulerPolicy.FAIR_SHARE)
        assert len(report.completion_times) == 5

    def test_default_user_tag(self, gpu_job):
        assert gpu_job().user == "default"


