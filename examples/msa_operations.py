#!/usr/bin/env python
"""Operating an MSA: scheduling, storage, the GCE, and cloud economics.

The 'operator's view' of the paper: the experiments that justify the MSA's
design decisions —

* the Fig. 2 workload-placement comparison (MSA vs homogeneous cluster vs
  homogeneous booster) on time-to-solution and energy,
* the SSSM parallel filesystem serving BigEarthNet-scale staging,
* the NAM's shared datasets vs per-group duplicate downloads,
* the ESB's FPGA Global Collective Engine vs software allreduce,
* the cloud cost reality ($24/h p3.16xlarge vs HPC grants).

Run:  python examples/msa_operations.py
      python examples/msa_operations.py --faults seed=7,crash=cm:2,straggler=esb:1

The ``--faults`` flag replays the same operations under a deterministic
fault plan (node crashes, stragglers, link degradation) and prints the
recovery report: retries, backoff, MTTR and lost node-seconds.
"""

import argparse

from repro.core import (
    ClusterModule,
    BoosterModule,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    MSASystem,
    StorageModule,
    homogeneous_system,
    schedule_workload,
    synthetic_workload_mix,
)
from repro.mpi import GlobalCollectiveEngine
from repro.resilience import (FaultInjector, FaultPlan, FaultPlanError,
                              RetryPolicy)
from repro.simnet import CommCostModel, LinkKind
from repro.storage import DatasetSharingStudy, ParallelFileSystem
from repro.workflows.cloud import AWS_P3_16XLARGE, CampaignSpec, CloudCostModel

GiB = 1024 ** 3


def fig2_placement() -> None:
    print("=" * 72)
    print("Fig. 2: mixed workloads on MSA vs homogeneous systems")
    print("=" * 72)

    def msa():
        sys = MSASystem("MSA")
        sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 64))
        sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 61))
        sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 16))
        sys.add_module("sssm", StorageModule("SSSM", capacity_PB=2.0))
        return sys

    jobs = lambda: synthetic_workload_mix(n_jobs=18, seed=7,
                                          mean_interarrival_s=120.0)
    systems = {
        "MSA (CM+ESB+DAM)": schedule_workload(msa(), jobs()),
        "cluster-only": schedule_workload(
            homogeneous_system("cluster-only", DEEP_CM_NODE, 141), jobs()),
        "booster-only": schedule_workload(
            homogeneous_system("booster-only", DEEP_ESB_NODE, 141,
                               as_booster=True), jobs()),
    }
    print(f"{'system':<18} {'makespan (h)':>13} {'turnaround (h)':>15} "
          f"{'energy (kWh)':>13}")
    for name, report in systems.items():
        print(f"{name:<18} {report.makespan / 3600:>13.1f} "
              f"{report.mean_turnaround / 3600:>15.1f} "
              f"{report.energy_kwh:>13.0f}")
    print("-> each application part on a matching module: better time to "
          "solution AND energy (the MSA's core claim).")


def storage_section() -> None:
    print("\n" + "=" * 72)
    print("SSSM: striped parallel filesystem (Lustre/GPFS class)")
    print("=" * 72)
    pfs = ParallelFileSystem("JUST", n_targets=32)
    for stripes in (1, 4, 16, 32):
        f = pfs.create(f"/bigearthnet-{stripes}", 120 * GiB,
                       stripe_count=stripes)
        print(f"stripe_count={stripes:>2}: 120 GiB staged in "
              f"{pfs.read_time(f):6.1f} s "
              f"({pfs.aggregate_read_GBps(f):5.0f} GB/s layout peak)")

    print("\nNAM: shared datasets vs duplicate downloads (Sec. II-A)")
    for members in (4, 10, 20):
        study = DatasetSharingStudy(dataset_bytes=50 * GiB, n_members=members)
        print(f"{members:>3} group members: NAM is {study.speedup():5.1f}x "
              f"faster, external traffic / {study.traffic_reduction():.0f}")


def gce_section() -> None:
    print("\n" + "=" * 72)
    print("ESB Global Collective Engine: in-network vs software allreduce")
    print("=" * 72)
    gce = GlobalCollectiveEngine(CommCostModel.of_kind(LinkKind.INFINIBAND_HDR))
    print(f"{'ranks':>6} {'payload':>9} {'software':>11} {'GCE':>11} "
          f"{'speedup':>8}")
    for p in (16, 64, 256, 1024):
        for nbytes, label in ((4096, "4 KiB"), (100 << 20, "100 MiB")):
            sw = gce.software_allreduce_time(p, nbytes)
            hw = gce.allreduce_time(p, nbytes)
            print(f"{p:>6} {label:>9} {sw * 1e6:>9.1f}µs {hw * 1e6:>9.1f}µs "
                  f"{sw / hw:>8.1f}x")


def cloud_section() -> None:
    print("\n" + "=" * 72)
    print("Cloud economics: why the 128-GPU studies stay on HPC grants")
    print("=" * 72)
    model = CloudCostModel(instance=AWS_P3_16XLARGE)
    campaign = CampaignSpec(n_gpus=128, hours_per_run=10, n_runs=5)
    cost = model.cloud_cost_usd(campaign)
    print(f"campaign: 128 GPUs x 10 h x 5 runs = "
          f"{campaign.gpu_hours:,.0f} GPU-hours")
    print(f"AWS p3.16xlarge @ ${AWS_P3_16XLARGE.usd_per_hour}/h: "
          f"${cost:,.0f}")
    print(f"PRACE-style HPC grant: "
          f"${model.grant_cost_usd(campaign, grant_gpu_hours=50_000):,.0f}")
    print("-> 'we need to use still the cost-free HPC computational time "
          "grants to be feasible'")


def resilience_section(faults: str) -> None:
    print("\n" + "=" * 72)
    print(f"Operating under faults: --faults {faults}")
    print("=" * 72)
    system = MSASystem("MSA")
    system.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 64))
    system.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 61))
    system.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 16))
    system.add_module("sssm", StorageModule("SSSM", capacity_PB=2.0))
    targets = {k: m.n_nodes for k, m in system.compute_modules().items()}
    plan = FaultPlan.parse(faults, targets=targets, horizon_s=4 * 3600.0)

    jobs = synthetic_workload_mix(n_jobs=18, seed=7, mean_interarrival_s=120.0)
    report = schedule_workload(
        system, jobs,
        fault_injector=FaultInjector(plan),
        retry_policy=RetryPolicy(max_retries=3, base_delay_s=30.0,
                                 seed=plan.seed))
    print(report.summary())
    res = report.resilience
    for t, spec in res.faults_injected:
        where = f"{spec.module}:{spec.node}" if spec.node >= 0 else spec.module
        print(f"  t={t:>9.0f}s  {spec.kind.value:<13} {where}")
    for rq in res.requeues:
        print(f"  t={rq.time:>9.0f}s  requeued {rq.job_name} "
              f"(attempt {rq.attempt}, backoff {rq.backoff_s:.0f}s)")
    if report.failed_jobs:
        print(f"  permanently failed: {', '.join(report.failed_jobs)}")
    print("-> faults are ordinary simulated events; same plan, same seed, "
          "same schedule — every time.")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Operating an MSA: scheduling, storage, GCE, cloud "
                    "economics — optionally under a deterministic fault plan.")
    parser.add_argument(
        "--faults", metavar="PLAN", default=None,
        help='fault plan, e.g. "seed=7,crash=cm:2,straggler=esb:1,'
             'degrade=cm:1,repair=600" (see FaultPlan.parse)')
    cli = parser.parse_args()
    fig2_placement()
    storage_section()
    gce_section()
    cloud_section()
    if cli.faults:
        try:
            resilience_section(cli.faults)
        except FaultPlanError as exc:
            parser.error(f"--faults: {exc}")     # exits 2
