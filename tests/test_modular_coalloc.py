"""Cross-module MPI (federation costs) and co-allocated multi-module jobs —
the MSA's 'combinations of module resources' capability."""

import numpy as np
import pytest

from repro.core import (
    BoosterModule,
    ClusterModule,
    CoAllocatedPhase,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    Job,
    JobPhase,
    MSASystem,
    MsaScheduler,
    StorageModule,
    WorkloadClass,
    juwels_system,
)
from repro.mpi import run_spmd


# ---------------------------------------------------------------------------
# ranks placed on modules: each message priced by the system
# ---------------------------------------------------------------------------

def allreduce_time(rank_module, n):
    """Critical-path sim time of one n-element allreduce on JUWELS ranks."""
    def fn(comm):
        comm.allreduce(np.ones(n))
        return comm.sim_time

    placement = juwels_system().placement(rank_module)
    return max(run_spmd(fn, len(rank_module), cost_model=placement))


class TestRankPlacement:
    def test_intra_module_uses_fabric_cost(self):
        juwels = juwels_system()
        placement = juwels.placement(["booster"] * 4)
        assert placement.ptp_between(0, 3, 1e6) == \
            juwels.module("booster").cost_model.ptp(1e6)

    def test_inter_module_costs_more(self):
        placement = juwels_system().placement(["booster", "booster",
                                               "cluster"])
        assert placement.ptp_between(0, 2, 1e6) > \
            placement.ptp_between(0, 1, 1e6)

    def test_inter_module_is_the_federation_transfer(self):
        """The scheduler's figure for the same bytes, not a second model."""
        juwels = juwels_system()
        placement = juwels.placement(["booster", "cluster"])
        assert placement.ptp_between(0, 1, 1e6) == \
            juwels.inter_module_transfer_time("booster", "cluster", 1e6)

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError, match="nowhere"):
            juwels_system().placement(["booster", "nowhere"])
        with pytest.raises(ValueError, match="sssm"):
            juwels_system().placement(["sssm"])     # storage runs no ranks

    def test_functional_results_unaffected_by_placement(self):
        """Placement changes time, never numerics."""
        data = np.arange(32.0)

        def fn(comm):
            return comm.allreduce(data + comm.rank)

        juwels = juwels_system()
        same = run_spmd(fn, 4, cost_model=juwels.placement(["booster"] * 4))
        spanning = run_spmd(fn, 4, cost_model=juwels.placement(
            ["booster", "booster", "cluster", "cluster_gpu"]))
        np.testing.assert_array_equal(same[0], spanning[0])

    def test_spanning_modules_slows_allreduce(self):
        """Why Horovod jobs stay inside the booster."""
        intra = allreduce_time(["booster"] * 8, 500_000)
        spanning = allreduce_time(["booster"] * 4 + ["cluster"] * 4, 500_000)
        assert spanning > intra * 1.3

    def test_a_third_module_costs_more_still(self):
        """The ring crosses the federation once per module boundary."""
        one = allreduce_time(["booster"] * 8, 200_000)
        two = allreduce_time(["booster"] * 4 + ["cluster"] * 4, 200_000)
        three = allreduce_time(
            ["booster"] * 3 + ["cluster"] * 3 + ["cluster_gpu"] * 2, 200_000)
        assert three > two > one


# ---------------------------------------------------------------------------
# co-allocated phases
# ---------------------------------------------------------------------------

def small_system() -> MSASystem:
    sys = MSASystem("co")
    sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 8))
    sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 8))
    sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 4))
    sys.add_module("sssm", StorageModule("S", capacity_PB=1.0))
    return sys


def insitu_job(name="insitu", coupling=50e9) -> Job:
    return Job(name=name, phases=[CoAllocatedPhase(
        name="solve+analyse",
        components=(
            JobPhase(name="solver",
                     workload=WorkloadClass.SIMULATION_HIGHSCALE,
                     work_flops=1e17, nodes=6, uses_gpu=True,
                     parallel_fraction=0.99),
            JobPhase(name="analytics",
                     workload=WorkloadClass.DATA_ANALYTICS,
                     work_flops=1e14, nodes=2,
                     memory_GB_per_node=400.0),
        ),
        coupling_bytes=coupling,
    )])


class TestCoAllocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoAllocatedPhase(name="x", components=(JobPhase(
                name="only", workload=WorkloadClass.ML_TRAINING,
                work_flops=1.0),))
        with pytest.raises(ValueError):
            CoAllocatedPhase(name="x", components=(
                JobPhase(name="a", workload=WorkloadClass.ML_TRAINING,
                         work_flops=1.0),
                JobPhase(name="b", workload=WorkloadClass.ML_TRAINING,
                         work_flops=1.0)), coupling_bytes=-1)

    def test_components_on_matching_modules(self):
        sched = MsaScheduler(small_system())
        sched.submit(insitu_job())
        report = sched.run()
        placement = {a.phase_name.split("/")[1]: a.module_key
                     for a in report.allocations}
        assert placement["solver"] == "esb"
        assert placement["analytics"] == "dam"

    def test_components_start_and_end_together(self):
        sched = MsaScheduler(small_system())
        sched.submit(insitu_job())
        report = sched.run()
        assert len({a.start for a in report.allocations}) == 1
        assert len({a.end for a in report.allocations}) == 1

    def test_coupling_traffic_extends_runtime(self):
        def makespan(coupling):
            sched = MsaScheduler(small_system())
            sched.submit(insitu_job(coupling=coupling))
            return sched.run().makespan

        assert makespan(5e12) > makespan(0.0)

    def test_all_nodes_released(self):
        system = small_system()
        sched = MsaScheduler(system)
        sched.submit(insitu_job())
        sched.run()
        for module in system.compute_modules().values():
            assert module.free_nodes == module.n_nodes

    def test_waits_until_both_modules_available(self):
        # Occupy the DAM with a long analytics job; the co-allocation must
        # wait even though the booster is free.
        blocker = Job(name="hog", phases=[JobPhase(
            name="spark", workload=WorkloadClass.DATA_ANALYTICS,
            work_flops=5e15, nodes=4, memory_GB_per_node=400.0)])
        sched = MsaScheduler(small_system())
        sched.submit(blocker)
        sched.submit(insitu_job())
        report = sched.run()
        hog_end = max(a.end for a in report.allocations
                      if a.job_name == "hog")
        insitu_start = min(a.start for a in report.allocations
                           if a.job_name == "insitu")
        assert insitu_start >= hog_end - 1e-9

    def test_mixed_phase_types_in_one_job(self):
        job = Job(name="mixed", phases=[
            JobPhase(name="prep", workload=WorkloadClass.SIMULATION_LOWSCALE,
                     work_flops=1e13, nodes=1),
            insitu_job().phases[0],
        ])
        sched = MsaScheduler(small_system())
        sched.submit(job)
        report = sched.run()
        assert len(report.allocations) == 3     # prep + 2 components
        prep = [a for a in report.allocations if a.phase_name == "prep"][0]
        coalloc_start = min(a.start for a in report.allocations
                            if "/" in a.phase_name)
        assert coalloc_start >= prep.end

    def test_same_module_coalloc_when_capacity_allows(self):
        # Two CPU components both best on CM: greedy packs them there.
        job = Job(name="dual-cm", phases=[CoAllocatedPhase(
            name="pair",
            components=(
                JobPhase(name="a", workload=WorkloadClass.SIMULATION_LOWSCALE,
                         work_flops=1e13, nodes=3),
                JobPhase(name="b", workload=WorkloadClass.SIMULATION_LOWSCALE,
                         work_flops=1e13, nodes=3),
            ))])
        sched = MsaScheduler(small_system())
        sched.submit(job)
        report = sched.run()
        keys = [a.module_key for a in report.allocations]
        assert keys == ["cm", "cm"]
        used = [n for a in report.allocations for n in a.nodes]
        assert len(used) == len(set(used))       # disjoint node sets
