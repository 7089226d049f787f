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
)
from repro.mpi import ModularCostModel, run_modular_spmd
from repro.simnet.link import LinkKind

FABRICS = {"booster": LinkKind.INFINIBAND_HDR,
           "cluster": LinkKind.INFINIBAND_EDR,
           "dam": LinkKind.EXTOLL}


# ---------------------------------------------------------------------------
# modular MPI
# ---------------------------------------------------------------------------

class TestModularCostModel:
    def test_intra_module_uses_fabric_cost(self):
        model = ModularCostModel.build(["booster"] * 4, FABRICS)
        local = model.module_models["booster"]
        assert model.ptp_between(0, 3, 1e6) == pytest.approx(local.ptp(1e6))

    def test_inter_module_costs_more(self):
        model = ModularCostModel.build(
            ["booster", "booster", "cluster"], FABRICS)
        assert model.ptp_between(0, 2, 1e6) > model.ptp_between(0, 1, 1e6)

    def test_inter_module_latency_additive(self):
        model = ModularCostModel.build(["booster", "cluster"], FABRICS)
        expected_alpha = (model.module_models["booster"].alpha
                          + model.federation.alpha
                          + model.module_models["cluster"].alpha)
        assert model.ptp_between(0, 1, 0) == pytest.approx(expected_alpha)

    def test_worst_case_scalar_surface(self):
        spanning = ModularCostModel.build(["booster", "cluster"], FABRICS)
        single = ModularCostModel.build(["booster", "booster"], FABRICS)
        assert spanning.alpha > single.alpha
        assert len(set(spanning.rank_module)) == 2
        assert len(set(single.rank_module)) == 1

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError):
            ModularCostModel(rank_module=("x",), module_models={},
                             federation=None)

    def test_functional_results_unaffected_by_placement(self):
        """Placement changes time, never numerics."""
        data = np.arange(32.0)

        def fn(comm):
            return comm.allreduce(data + comm.rank)

        same = run_modular_spmd(fn, ["booster"] * 4, FABRICS)
        spanning = run_modular_spmd(
            fn, ["booster", "booster", "cluster", "dam"], FABRICS)
        np.testing.assert_allclose(same[0], spanning[0])

    def test_spanning_modules_slows_allreduce(self):
        """Why Horovod jobs stay inside the booster."""
        def fn(comm):
            comm.allreduce(np.ones(500_000))
            return comm.sim_time

        intra = max(run_modular_spmd(fn, ["booster"] * 8, FABRICS))
        spanning = max(run_modular_spmd(
            fn, ["booster"] * 4 + ["cluster"] * 4, FABRICS))
        assert spanning > intra * 1.3

    def test_more_modules_spanned_is_worse_or_equal(self):
        def fn(comm):
            comm.allreduce(np.ones(200_000))
            return comm.sim_time

        two = max(run_modular_spmd(
            fn, ["booster"] * 4 + ["cluster"] * 4, FABRICS))
        three = max(run_modular_spmd(
            fn, ["booster"] * 3 + ["cluster"] * 3 + ["dam"] * 2, FABRICS))
        assert three >= two * 0.8  # sanity: same order of magnitude
        assert three > 0


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
