"""Ablation benches for the design choices DESIGN.md calls out.

Each sweep isolates one mechanism the reproduction relies on:

* scheduler **patience tolerance** — how bad a feasible-now placement may
  be before a job waits for its matching module,
* gradient **compression** — fp16 wire vs fp32 in functional training
  (traffic down, accuracy intact),
* **ZeRO stages** — optimiser/gradient memory per rank vs replication,
* **GCE offload inside training** — the Fig. 3 curve with allreduces on the
  in-network engine instead of the software ring,
* **checkpoint path** — NAM vs striped PFS as model state grows (ref [12]).
"""

import numpy as np
import pytest

from conftest import emit_table

GiB = 1024 ** 3


def test_ablation_scheduler_patience():
    from repro.core import MsaScheduler, synthetic_workload_mix
    from repro.core import (MSASystem, ClusterModule, BoosterModule,
                            DataAnalyticsModule, StorageModule,
                            DEEP_CM_NODE, DEEP_ESB_NODE, DEEP_DAM_NODE)

    def system():
        sys = MSASystem("MSA")
        sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 32))
        sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 16))
        sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, 8))
        sys.add_module("sssm", StorageModule("SSSM", capacity_PB=1.0))
        return sys

    def run(pf):
        sched = MsaScheduler(system(), patience_factor=pf)
        sched.submit_all(synthetic_workload_mix(
            n_jobs=14, seed=3, mean_interarrival_s=60.0))
        return sched.run()

    rows = []
    results = {}
    for pf in (1.0, 3.0, 10.0, 1e6):
        report = results[pf] = run(pf)
        rows.append([f"{pf:g}", f"{report.makespan / 3600:.1f}",
                     f"{report.mean_turnaround / 3600:.1f}",
                     f"{report.energy_kwh:.0f}"])
    emit_table("Ablation — scheduler patience tolerance",
               ["tolerance", "makespan h", "turnaround h", "energy kWh"],
               rows)

    # Unlimited tolerance (greedy) must not beat the default on makespan.
    assert results[3.0].makespan <= results[1e6].makespan * 1.05


def test_ablation_gradient_compression():
    from repro.distributed import (DistributedOptimizer, Fp16Compression,
                                   broadcast_parameters)
    from repro.ml import (SGD, ArrayDataset, DistributedDataLoader, Tensor,
                          cross_entropy)
    from repro.ml.metrics import accuracy
    from repro.ml.models import MLP
    from repro.mpi import run_spmd

    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 1, (64, 2)), rng.normal(2, 1, (64, 2))])
    Y = np.array([0] * 64 + [1] * 64)

    def train(comm, compression):
        model = MLP([2, 8, 2], seed=0)
        broadcast_parameters(model, comm)
        opt = DistributedOptimizer(SGD(model.parameters(), lr=0.05), comm,
                                   compression=compression)
        loader = DistributedDataLoader(ArrayDataset(X, Y), 16, comm.rank,
                                       comm.size, seed=1)
        for epoch in range(3):
            loader.set_epoch(epoch)
            for xb, yb in loader:
                loss = cross_entropy(model(Tensor(xb)), yb)
                opt.zero_grad()
                loss.backward()
                opt.step()
        return accuracy(model.predict(X), Y), comm.state.bytes_sent

    def run(compression):
        return run_spmd(train, 4, args=(compression,))

    fp32 = run(None)
    fp16 = run(Fp16Compression())
    rows = [
        ["fp32 wire", f"{fp32[0][0]:.3f}", f"{sum(b for _, b in fp32):,}"],
        ["fp16 wire", f"{fp16[0][0]:.3f}", f"{sum(b for _, b in fp16):,}"],
    ]
    emit_table("Ablation — gradient compression (4 workers)",
               ["configuration", "accuracy", "bytes sent"], rows)

    assert abs(fp32[0][0] - fp16[0][0]) < 0.05      # accuracy intact
    assert sum(b for _, b in fp16) < 0.5 * sum(b for _, b in fp32)


def test_ablation_zero_stage_memory():
    from repro.distributed import ZeroStage1Optimizer, ZeroStage2Optimizer
    from repro.distributed.horovod import broadcast_parameters
    from repro.ml import Tensor, cross_entropy
    from repro.ml.models import MLP
    from repro.mpi import run_spmd

    rng = np.random.default_rng(0)
    X = rng.normal(size=(32, 2))
    Y = (X[:, 0] > 0).astype(int)

    def measure(comm):
        model = MLP([2, 64, 2], seed=0)
        broadcast_parameters(model, comm)
        out = {}
        for name, cls in (("stage1", ZeroStage1Optimizer),
                          ("stage2", ZeroStage2Optimizer)):
            opt = cls(model.parameters(), comm, lr=0.01)
            loss = cross_entropy(model(Tensor(X)), Y)
            opt.zero_grad()
            loss.backward()
            opt.step()
            grad_bytes = getattr(opt, "peak_grad_shard_bytes",
                                 opt.total_elements * 8)
            out[name] = (opt.local_state_bytes, grad_bytes,
                         opt.unsharded_state_bytes)
        return out

    results = run_spmd(measure, 4)
    r0 = results[0]
    full_state = r0["stage1"][2]
    rows = [
        ["replicated (baseline)", f"{full_state:,}", f"{full_state // 2:,}"],
        ["ZeRO stage 1", f"{r0['stage1'][0]:,}", f"{r0['stage1'][1]:,}"],
        ["ZeRO stage 2", f"{r0['stage2'][0]:,}", f"{r0['stage2'][1]:,}"],
    ]
    emit_table("Ablation — per-rank memory at 4 workers (bytes)",
               ["configuration", "optimiser state", "gradient"], rows)

    assert r0["stage1"][0] <= full_state // 4 + 64        # state sharded
    assert r0["stage2"][1] <= (full_state // 2) // 4 + 64  # grads sharded too


def test_ablation_gce_in_training_loop():
    from repro.distributed import DistributedTrainingPerfModel
    from repro.mpi import GlobalCollectiveEngine

    base = DistributedTrainingPerfModel()
    gce_model = base.with_gce(GlobalCollectiveEngine(base.fabric))

    def curves():
        return (base.scaling_curve([64, 128, 256]),
                gce_model.scaling_curve([64, 128, 256]))

    ring, offload = curves()
    rows = [[pt.n_gpus, f"{pt.speedup:.1f}", f"{pt2.speedup:.1f}"]
            for pt, pt2 in zip(ring, offload)]
    emit_table("Ablation — Fig. 3 speedup: software ring vs GCE offload",
               ["GPUs", "ring speedup", "GCE speedup"], rows)
    for pt, pt2 in zip(ring, offload):
        assert pt2.speedup >= pt.speedup * 0.99


def test_ablation_checkpoint_path():
    from repro.storage import NetworkAttachedMemory, ParallelFileSystem
    from repro.storage.checkpoint import CheckpointManager

    mgr = CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=256, write_GBps=8.0),
        pfs=ParallelFileSystem("fs", n_targets=8, target_GBps=5.0))

    def sweep():
        rows = []
        for size_gb in (1, 10, 50, 100):
            comparison = mgr.path_comparison(size_gb * GiB,
                                             concurrent_writers=32)
            rows.append([size_gb, f"{comparison['nam']:.1f}",
                         f"{comparison['pfs']:.1f}",
                         f"{comparison['pfs'] / comparison['nam']:.1f}x"])
        return rows

    rows = sweep()
    emit_table("Ablation — checkpoint write path, 32 concurrent writers "
               "(ref [12])", ["state GB", "NAM s", "PFS s", "NAM advantage"],
               rows)
    assert all(float(r[1]) < float(r[2]) for r in rows)


def test_ablation_fair_share_policy():
    """Queue policy: FCFS-backfill vs fair-share when one community floods
    the queue — the multi-community centre's fairness knob."""
    from repro.core import (MSASystem, BoosterModule, ClusterModule, Job,
                            JobPhase, SchedulerPolicy, WorkloadClass,
                            DEEP_CM_NODE, DEEP_ESB_NODE, schedule_workload)

    def system():
        sys = MSASystem("fair")
        sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, 8))
        sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, 8))
        return sys

    def jobs():
        flood = []
        for i in range(4):
            job = Job(name=f"rs-{i}", phases=[JobPhase(
                name="train", workload=WorkloadClass.ML_TRAINING,
                work_flops=1e17, nodes=8, uses_gpu=True,
                uses_tensor_cores=True, parallel_fraction=0.99)],
                user="remote-sensing")
            flood.append(job)
        flood.append(Job(name="health-0", phases=[JobPhase(
            name="train", workload=WorkloadClass.ML_TRAINING,
            work_flops=1e17, nodes=8, uses_gpu=True,
            uses_tensor_cores=True, parallel_fraction=0.99)],
            user="health"))
        return flood

    def run(policy):
        return schedule_workload(system(), jobs(), queue_policy=policy)

    fair = run(SchedulerPolicy.FAIR_SHARE)
    fcfs = run(SchedulerPolicy.FCFS_BACKFILL)
    rows = [
        ["FCFS+backfill", f"{fcfs.wait_times['health-0']:.0f}",
         f"{fcfs.makespan:.0f}"],
        ["fair-share", f"{fair.wait_times['health-0']:.0f}",
         f"{fair.makespan:.0f}"],
    ]
    emit_table("Ablation — queue policy: late community's wait (s)",
               ["policy", "health-0 wait s", "makespan s"], rows)
    assert fair.wait_times["health-0"] < fcfs.wait_times["health-0"]
