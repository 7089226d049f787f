"""E12 — Fig. 1's federation in action: jobs within vs across modules.

Two experiments the MSA design implies:

* **cross-module allreduce penalty** — the same Horovod-style job placed
  inside the booster vs spanning booster+cluster: federation latency and
  bottleneck bandwidth slow synchronisation, which is why data-parallel
  training is placed within one module,
* **co-allocation win** — an in-situ 'solver + analytics' job run (a) as a
  co-allocated multi-module phase (solver on ESB, analytics on DAM,
  coupled over the federation) vs (b) serialised phases: co-allocation
  overlaps the components.
"""

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
from repro.mpi import run_modular_spmd
from repro.simnet.link import LinkKind

from conftest import emit_table

FABRICS = {"booster": LinkKind.INFINIBAND_HDR,
           "cluster": LinkKind.INFINIBAND_EDR}


def test_cross_module_allreduce_penalty():
    def fn(comm):
        for _ in range(4):
            comm.allreduce(np.ones(250_000))   # 2 MB gradients
        return comm.sim_time

    def measure():
        intra = max(run_modular_spmd(fn, ["booster"] * 8, FABRICS))
        spanning = max(run_modular_spmd(
            fn, ["booster"] * 4 + ["cluster"] * 4, FABRICS))
        return intra, spanning

    intra, spanning = measure()
    rows = [
        ["8 ranks inside the booster", f"{intra * 1e6:.0f}"],
        ["4 booster + 4 cluster ranks", f"{spanning * 1e6:.0f}"],
        ["federation penalty", f"{spanning / intra:.2f}x"],
    ]
    emit_table("E12 — 4x 2MB allreduce: within vs across modules (µs, "
               "simulated)", ["placement", "time"], rows)
    assert spanning > intra * 1.2


def _system() -> MSASystem:
    sys = MSASystem("co")
    sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 8))
    sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 8))
    sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 4))
    sys.add_module("sssm", StorageModule("S", capacity_PB=1.0))
    return sys


def _components():
    return (
        JobPhase(name="solver", workload=WorkloadClass.SIMULATION_HIGHSCALE,
                 work_flops=1e17, nodes=6, uses_gpu=True,
                 parallel_fraction=0.99),
        JobPhase(name="analytics", workload=WorkloadClass.DATA_ANALYTICS,
                 work_flops=2e15, nodes=2, memory_GB_per_node=400.0),
    )


def test_coallocation_vs_serialised_phases():
    solver, analytics = _components()

    def run(job):
        sched = MsaScheduler(_system())
        sched.submit(job)
        return sched.run()

    coupled = Job(name="insitu", phases=[CoAllocatedPhase(
        name="insitu", components=(solver, analytics),
        coupling_bytes=50e9)])
    serial = Job(name="staged", phases=[solver, analytics])

    co_report = run(coupled)
    serial_report = run(serial)
    rows = [
        ["co-allocated (ESB ∥ DAM)", f"{co_report.makespan / 3600:.2f}"],
        ["serialised phases", f"{serial_report.makespan / 3600:.2f}"],
        ["overlap win",
         f"{serial_report.makespan / co_report.makespan:.2f}x"],
    ]
    emit_table("E12 — in-situ solver+analytics: co-allocation vs staging "
               "(hours)", ["mode", "makespan"], rows)

    assert co_report.makespan < serial_report.makespan
    modules = {a.module_key for a in co_report.allocations}
    assert modules == {"esb", "dam"}
