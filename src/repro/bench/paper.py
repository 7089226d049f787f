"""The paper's experiments (E1–E14 + ablations) as gated ``repro bench`` cases.

One case per experiment of DESIGN.md §4, all in the ``paper`` area.  A case
computes its experiment's numbers once, states the paper's *shape* claim
about them through :func:`~repro.bench.registry.expect` (who wins, by what
rough factor, where a crossover sits) and records the numbers as metrics:
``BENCH_paper.json`` holds what the claim was checked on, ``--compare``
shows when a number moved.  A case name starts with its experiment id, its
description is the title; ``repro experiments`` lists both.

The datasets keep the seeds the experiments were designed on (``--seed``
is recorded in the artifact but does not re-draw them); ``quick`` trains
the E3 and E7 networks for fewer epochs against proportionally looser
accuracy floors and changes nothing else.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.analytics import (MiniSparkContext, RandomForest,
                             RddLogisticRegression)
from repro.bench.cases import _round6, stable_digest
from repro.bench.registry import Budget, CaseRun, bench_case, expect
from repro.core import (DEEP_CM_NODE, DEEP_DAM_NODE, DEEP_ESB_NODE,
                        BoosterModule, ClusterModule, CoAllocatedPhase,
                        DataAnalyticsModule, Job, JobPhase, MSASystem,
                        MsaScheduler, PlacementPolicy, SchedulerPolicy,
                        NVIDIA_A100, NVIDIA_V100, StorageModule,
                        WorkloadClass, deep_system, homogeneous_system,
                        juwels_system, schedule_workload,
                        synthetic_workload_mix)
from repro.core.streaming import (StreamingConfig, capacity_for_deadline,
                                  simulate_stream)
from repro.datasets import (CXR_CLASSES, BigEarthNetConfig, CxrConfig,
                            IcuCohort, IcuConfig, SyntheticBigEarthNet,
                            SyntheticCovidx, berlin_severity,
                            make_imputation_windows)
from repro.distributed import (DistributedOptimizer,
                               DistributedTrainingPerfModel, Fp16Compression,
                               ZeroStage1Optimizer, ZeroStage2Optimizer,
                               broadcast_parameters)
from repro.ml import (SGD, Adam, ArrayDataset, DistributedDataLoader, Tensor,
                      cross_entropy, l2_regularisation, mae, mse,
                      train_test_split)
from repro.ml.metrics import accuracy, mae_score, precision_recall_f1
from repro.ml.models import (MLP, Cnn1dForecaster, CovidNet, GruForecaster,
                             SpectralAutoencoder, resnet_small)
from repro.ml.models.gru_forecaster import locf_baseline, mean_baseline
from repro.mpi import GlobalCollectiveEngine, gce_allreduce, run_spmd
from repro.quantum import (DWAVE_2000Q, DWAVE_ADVANTAGE, QSvmEnsemble,
                           QuantumSVM, SimulatedQuantumAnnealer)
from repro.quantum.annealer import EmbeddingError
from repro.serving import (AutoscalerConfig, ServingConfig, TraceConfig,
                           simulate_serving)
from repro.simnet import CommCostModel, LinkKind, best_allreduce_time
from repro.storage import (CheckpointManager, DatasetSharingStudy,
                           NetworkAttachedMemory, ParallelFileSystem,
                           TieredStore)
from repro.svm import SVC
from repro.svm.cascade import cascade_train, serial_train
from repro.workflows import (AWS_P3_16XLARGE, CloudCostModel, ContainerImage,
                             JupyterKernelSpec, singularity_from_docker)
from repro.workflows.cloud import FREE_TIER_COLAB, CampaignSpec
from repro.workflows.containers import cloud_docker, juwels_singularity
from repro.workflows.jupyter import jsc_module_environment

GiB = 1024 ** 3
Values = dict[str, Any]     #: metric name -> number, as a case records them


def paper_case(name: str, title: str, lower=(), higher=(), score=(),
               error=()) -> Callable:
    """Register ``fn(quick, values, digests)`` as the ``paper`` case ``name``.

    ``fn`` fills ``values`` and ``digests``; counts are stored exactly,
    measured values with the artifact's six digits.  The tuples name the
    budgeted metrics: ``lower``/``higher`` are sim-clock and count metrics
    (tolerance 0), ``score``/``error`` trained-model results (0.02
    relative, at most 0.02 absolute on a 0–1 score).
    """
    budgets = {**dict.fromkeys(lower, Budget("lower", 0.0)),
               **dict.fromkeys(higher, Budget("higher", 0.0)),
               **dict.fromkeys(score, Budget("higher", 0.02)),
               **dict.fromkeys(error, Budget("lower", 0.02))}

    def deco(fn: Callable[[bool, Values, dict[str, str]], None]) -> Callable:
        def run(quick: bool, seed: int) -> CaseRun:
            values, digests = {}, {}
            fn(quick, values, digests)
            exact = (bool, int, np.integer)
            return CaseRun({k: float(v) if isinstance(v, exact)
                            else _round6(v) for k, v in values.items()},
                           digests)

        bench_case(name, "paper", budgets, title)(run)
        return fn
    return deco


def _row(values: Values, row: str, **columns: Any) -> None:
    """Record one table row: a metric ``<column>_<row>`` per column."""
    values.update({f"{col}_{row}": v for col, v in columns.items()})


def _msa(name: str, cm: int, esb: int, dam: int = 0,
         storage_pb: float = 0.0) -> MSASystem:
    """A DEEP-style MSA with the given node counts per module."""
    system = MSASystem(name)
    add = system.add_module
    add("cm", ClusterModule("CM", DEEP_CM_NODE, cm))
    add("esb", BoosterModule("ESB", DEEP_ESB_NODE, esb))
    if dam:
        add("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, dam))
    if storage_pb:
        add("sssm", StorageModule("SSSM", capacity_PB=storage_pb))
    return system


def _fit(model, opt, loss_fn, batches) -> list[float]:
    """One optimizer step per ``(x, y)`` batch; returns the step losses."""
    losses = []
    for xb, yb in batches:
        loss = loss_fn(model(Tensor(xb)), yb)
        opt.zero_grad()
        loss.backward()
        opt.step()
        losses.append(loss.item())
    return losses


def _minibatches(X, y, batch: int, epochs: int):
    """``epochs`` passes over one index array, reshuffled in place by a
    seed-0 generator before each pass."""
    idx = np.arange(len(X))
    rng = np.random.default_rng(0)
    for _ in range(epochs):
        rng.shuffle(idx)
        for s in range(0, len(idx), batch):
            yield X[idx[s:s + batch]], y[idx[s:s + batch]]


def _shard_batches(comm, X, y, batch: int, epochs: int):
    """This rank's batches of a seed-1 ``DistributedDataLoader``."""
    loader = DistributedDataLoader(ArrayDataset(X, y), batch, comm.rank,
                                   comm.size, seed=1)
    for epoch in range(epochs):
        loader.set_epoch(epoch)
        yield from loader


def _raises(error: type[Exception], fn: Callable, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except error:
        return True
    return False


@paper_case("E1_msa_systems", "Table I + Fig. 1 (MSA systems)",
            lower=("juwels_cluster_cores", "juwels_booster_cores",
                   "inter_module_transfer_1gb_s"))
def e1_msa_systems(quick, values, digests):
    deep = deep_system()
    dam = deep.module("dam")
    spec = dam.node_spec
    expect(dam.n_nodes == dam.total_gpus == dam.total_fpgas == 16,
           "Table I: the DEEP DAM has 16 nodes, 16 GPUs, 16 FPGAs")
    expect(spec.memory.ddr_GB == 384.0, "Table I: 384 GB DDR4 per DAM node")
    expect(math.isclose(dam.total_nvm_GB, 32 * 1024, rel_tol=1e-6),
           "Table I: 32 TB aggregate NVM on the DAM")
    values.update(
        dam_nodes=dam.n_nodes, dam_cpu_sockets=spec.cpu_sockets,
        dam_gpus=dam.total_gpus, dam_fpgas=dam.total_fpgas,
        dam_ddr_gb_per_node=spec.memory.ddr_GB,
        dam_hbm_gb_per_node=spec.memory.hbm_GB,
        dam_nvme_devices_per_node=spec.storage.devices,
        dam_nvme_tb_each=spec.storage.capacity_TB_each,
        dam_nvm_total_tb=dam.total_nvm_GB / 1024)
    digests["dam_parts"] = stable_digest(spec.cpu.name, spec.gpus[0].name,
                                         spec.fpgas[0].name)

    ju = juwels_system()
    cluster, cluster_gpu = ju.module("cluster"), ju.module("cluster_gpu")
    booster, booster_svc = ju.module("booster"), ju.module("booster_svc")
    cluster_cores = cluster.total_cpu_cores + cluster_gpu.total_cpu_cores
    booster_cores = booster.total_cpu_cores + booster_svc.total_cpu_cores
    expect(abs(cluster_cores - 122_768) / 122_768 < 0.011,
           "JUWELS cluster cores within 1.1% of the paper's 122,768")
    expect(abs(booster_cores - 45_024) / 45_024 < 0.01,
           "JUWELS booster cores within 1% of the paper's 45,024")
    expect(cluster_gpu.total_gpus == 224 and booster.total_gpus == 3744,
           "JUWELS has 224 cluster GPUs and 3,744 booster GPUs")
    values.update(
        juwels_cluster_nodes=cluster.n_nodes + cluster_gpu.n_nodes,
        juwels_cluster_cores=cluster_cores,
        juwels_cluster_gpus=cluster_gpu.total_gpus,
        juwels_booster_nodes=booster.n_nodes + booster_svc.n_nodes,
        juwels_booster_cores=booster_cores,
        juwels_booster_gpus=booster.total_gpus)
    # Fig. 1's federated network joins the module fabrics.
    expect(("federation", 0) in deep.federation.up,
           "the federation switch joins every module fabric")
    intra = deep.module("cm").topology.transfer_time(
        ("node", 0), ("node", 1), 1e9)
    inter = deep.inter_module_transfer_time("cm", "dam", 1e9)
    expect(inter > intra, "crossing modules costs more than staying inside")
    values.update(intra_module_transfer_1gb_s=intra,
                  inter_module_transfer_1gb_s=inter)


@paper_case("E2_workload_placement",
            "Fig. 2 (workload placement MSA vs homogeneous)",
            lower=("makespan_h_msa", "turnaround_h_msa", "energy_kwh_msa"))
def e2_workload_placement(quick, values, digests):
    jobs = partial(synthetic_workload_mix, n_jobs=18, seed=7,
                   mean_interarrival_s=120.0)
    # 141 nodes, the count every baseline matches
    fig2_msa = partial(_msa, "MSA", cm=64, esb=61, dam=16, storage_pb=2.0)
    reports = {
        "msa": schedule_workload(fig2_msa(), jobs()),
        "cluster_only": schedule_workload(
            homogeneous_system("cluster-only", DEEP_CM_NODE, 141), jobs()),
        "booster_only": schedule_workload(
            homogeneous_system("booster-only", DEEP_ESB_NODE, 141,
                               as_booster=True), jobs()),
        "first_fit": schedule_workload(
            fig2_msa(), jobs(), placement=PlacementPolicy.FIRST_FIT),
    }
    for name, report in reports.items():
        _row(values, name, makespan_h=report.makespan / 3600,
             turnaround_h=report.mean_turnaround / 3600,
             energy_kwh=report.energy_kwh,
             busy_kwh=report.energy_busy_joules / 3.6e6)
    msa, cluster, booster, first_fit = reports.values()
    expect(msa.makespan < min(cluster.makespan, booster.makespan),
           "MSA makespan beats cluster-only and booster-only")
    expect(msa.energy_total_joules < cluster.energy_total_joules,
           "MSA uses less energy than cluster-only")
    expect(msa.mean_turnaround < min(cluster.mean_turnaround,
                                     booster.mean_turnaround),
           "MSA mean turnaround beats cluster-only and booster-only")
    expect(msa.makespan < first_fit.makespan, "matchmaking beats first-fit")
    # Each Fig. 2 workload class lands on its matching module.
    phase_class = {(j.name, p.name): p.workload.value
                   for j in jobs() for p in j.phases}
    by_class: dict[str, list[str]] = {}
    for alloc in msa.allocations:
        by_class.setdefault(phase_class[(alloc.job_name, alloc.phase_name)],
                            []).append(alloc.module_key)
    dominant = {cls: max(sorted(set(mods)), key=mods.count)
                for cls, mods in sorted(by_class.items())}
    expect(dominant["simulation-lowscale"] == "cm",
           "low-scale simulations land on the CM")
    expect(dominant["data-analytics"] == "dam", "analytics lands on the DAM")
    expect(dominant["ml-training"] in ("esb", "dam"),
           "ML training lands on an accelerated module")
    expect(dominant["simulation-highscale"] == "esb",
           "high-scale simulations land on the ESB")
    for cls, mods in by_class.items():
        _row(values, cls.replace("-", "_"), phases=len(mods),
             on_dominant_module=mods.count(dominant[cls]))
    digests["dominant_module"] = stable_digest(sorted(dominant.items()))


@paper_case("E3_resnet_scaling",
            "Fig. 3 (distributed ResNet scaling, 96/128 GPUs)",
            higher=("naive_speedup_96gpu", "naive_speedup_128gpu",
                    "tuned_speedup_128gpu", "tuned_efficiency_128gpu"),
            lower=("a100_epoch_s_96gpu",),
            score=tuple(f"accuracy_{ws}workers" for ws in (1, 2, 4)))
def e3_resnet_scaling(quick, values, digests):
    # Paper-scale series (perf model, A100 booster): naive [18], tuned [20].
    gpu_counts = (1, 2, 4, 8, 16, 32, 64, 96, 128)
    model = DistributedTrainingPerfModel()
    naive = {pt.n_gpus: pt for pt in model.scaling_curve(gpu_counts)}
    tuned = {pt.n_gpus: pt for pt in replace(
        model, recipe=model.recipe.tuned()).scaling_curve(gpu_counts)}
    for n in gpu_counts:
        _row(values, f"{n}gpu", naive_epoch_s=naive[n].epoch_time_s,
             naive_speedup=naive[n].speedup,
             naive_efficiency=naive[n].efficiency,
             tuned_speedup=tuned[n].speedup,
             tuned_efficiency=tuned[n].efficiency)
    expect(naive[96].speedup > 48, "significant speedup at 96 GPUs (> 48x)")
    expect(naive[128].speedup > naive[96].speedup,
           "speedup still grows from 96 to 128 GPUs")
    expect(tuned[128].speedup > naive[128].speedup * 1.1,
           "tuned-128 beats naive-128 by more than 10%")
    expect(tuned[128].efficiency > 0.9, "tuned-128 efficiency above 0.9")
    v100_t = DistributedTrainingPerfModel(gpu=NVIDIA_V100).epoch_time(96)
    a100_t = DistributedTrainingPerfModel(gpu=NVIDIA_A100).epoch_time(96)
    expect(a100_t < v100_t, "A100 epoch time below V100 at 96 GPUs")
    values.update(v100_epoch_s_96gpu=v100_t, a100_epoch_s_96gpu=a100_t)
    # Functional runs: real training, accuracy invariant in worker count.
    X, y = SyntheticBigEarthNet(BigEarthNetConfig(
        n_samples=160, patch_size=8, n_classes=4, seed=0)).generate()

    def test_accuracy(comm):
        net = resnet_small(in_channels=12, n_classes=4, seed=0)
        broadcast_parameters(net, comm)
        _fit(net, DistributedOptimizer(Adam(net.parameters(), lr=3e-3), comm),
             cross_entropy,
             _shard_batches(comm, X[:120], y[:120], max(1, 40 // comm.size),
                            epochs=10 if quick else 25))
        return accuracy(net.predict(X[120:]), y[120:])

    accs = {ws: run_spmd(test_accuracy, ws)[0]
            for ws in (1, 2, 4)}
    margin = 0.1 if quick else 0.3
    expect(min(accs.values()) > 1.0 / 4 + margin,
           f"every worker count clears chance + {margin}")
    expect(max(accs.values()) - min(accs.values()) < 0.15,
           "accuracy spread across 1/2/4 workers below 0.15")
    values.update({f"accuracy_{ws}workers": a for ws, a in accs.items()})


@paper_case("E4_cascade_svm", "Fig. 3 M (parallel cascade SVM)",
            lower=("train_ms_cascade_p8", "sv_exchanged_p4"),
            higher=("speedup_cascade_p8",), score=("accuracy_cascade_p8",))
def e4_cascade_svm(quick, values, digests):
    """Times are modeled SMO work on the simulated clock; the cascade's is
    the root rank's critical path, waits for its partners included."""
    spectra, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=4, seed=3, noise_sigma=0.05)).pixels(1600)
    Xtr, Xte, ytr, yte = train_test_split(
        spectra, np.where(labels < 2, -1.0, 1.0), test_fraction=0.2, seed=0)
    svc = dict(gamma=2.0)

    def fn(comm):
        shard = np.arange(comm.rank, len(ytr), comm.size)
        return cascade_train(comm, Xtr[shard], ytr[shard],
                             template=SVC(**svc)), comm.sim_time

    serial_machine, t_serial = serial_train(Xtr, ytr, template=SVC(**svc))
    serial_acc = serial_machine.score(Xte, yte)
    _row(values, "serial", train_ms=t_serial * 1e3, accuracy=serial_acc)
    runs = {p: run_spmd(fn, p)[0] for p in (2, 4, 8)}
    for p, (result, t_cascade) in runs.items():
        _row(values, f"cascade_p{p}", train_ms=t_cascade * 1e3,
             accuracy=result.score(Xte, yte), speedup=t_serial / t_cascade)
    expect(values["accuracy_cascade_p8"] >= serial_acc - 0.03,
           "cascade p=8 accuracy within 0.03 of serial SMO")
    expect(runs[8][1] < t_serial, "cascade p=8 modeled time below serial SMO")
    sv_exchanged = runs[4][0].total_sv_exchanged
    expect(sv_exchanged / len(ytr) < 0.5, "under half the rows travel as SVs")
    values.update(train_rows=len(ytr), sv_exchanged_p4=sv_exchanged,
                  sv_fraction_p4=sv_exchanged / len(ytr))


@paper_case("E5_spark_dam", "Fig. 3 R (Spark analytics + AE on the DAM)",
            error=("ae_mse_bottleneck6",), lower=("read_s_dam_400gb",),
            higher=("fast_fraction_dam_400gb",),
            score=("logreg_train_accuracy", "forest_train_accuracy"))
def e5_spark_dam(quick, values, digests):
    X, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=6, seed=1, noise_sigma=0.02)).pixels(800)
    # Autoencoder compression of RS spectra (ref [7]), full-batch Adam.
    errors = []
    for bottleneck in (2, 4, 6):
        ae = SpectralAutoencoder(n_bands=12, bottleneck=bottleneck, seed=0)
        _fit(ae, Adam(ae.parameters(), lr=5e-3), mse, [(X, X)] * 60)
        errors.append(ae.reconstruction_error(X))
        _row(values, f"bottleneck{bottleneck}",
             ae_ratio=ae.compression_ratio, ae_mse=errors[-1])
    expect(errors[0] >= errors[1] >= errors[2],
           "a wider bottleneck never reconstructs worse")
    expect(errors[2] < 0.01, "12 -> 6 compression stays below 0.01 MSE")
    # The DAM's reason to exist: big cached working sets stay in DRAM.
    def cached_fast_fraction(store):
        ctx = MiniSparkContext(memory=store)
        ctx.parallelize(list(range(200_000))).cache().collect()
        return ctx.cached_fast_fraction()

    dam_frac = cached_fast_fraction(TieredStore.dam_node())
    small_frac = cached_fast_fraction(
        TieredStore(hbm_GB=0, ddr_GB=2e-3, nvm_GB=4.0))
    expect(math.isclose(dam_frac, 1.0, rel_tol=1e-6), "RDD stays in DAM DRAM")
    expect(small_frac < 1.0, "the same RDD spills on a small-memory node")
    values.update(dam_cached_fast_fraction=dam_frac,
                  small_node_cached_fast_fraction=small_frac)
    for size_gb in (100, 400, 800, 2000):
        for name, store in (("dam", TieredStore.dam_node()),
                            ("cluster", TieredStore.cluster_node())):
            store.put("ds", size_gb * GiB)
            _row(values, f"{name}_{size_gb}gb",
                 fast_fraction=store.resident_fraction_fast("ds"),
                 read_s=store.read_time("ds"))
    expect(values["fast_fraction_dam_400gb"]
           > values["fast_fraction_cluster_400gb"],
           "at 400 GB the DAM node keeps more in fast memory")
    expect(values["read_s_cluster_400gb"] > values["read_s_dam_400gb"],
           "at 400 GB the cluster node reads slower than the DAM node")
    # The footnote's MLlib stack on the RDD engine.
    y = (labels >= 3).astype(int)
    ctx = MiniSparkContext()
    logreg = RddLogisticRegression(n_features=12).fit(
        ctx.parallelize(list(zip(X, y))))
    forest = RandomForest(seed=0).fit(X, y, ctx=ctx)
    for name, fitted in (("logreg", logreg), ("forest", forest)):
        values[f"{name}_train_accuracy"] = score = fitted.score(X, y)
        expect(score > 0.85, f"RDD {name} above 0.85 train accuracy")


@paper_case("E6_quantum_svm", "Sec. III-C (quantum SVM ensembles)",
            score=("accuracy_qsvm_2000q", "accuracy_qsvm_advantage"),
            higher=("samples_per_anneal_advantage",))
def e6_quantum_svm(quick, values, digests):
    # A harder binary RS problem: grassland vs heathland (nearby spectra).
    spectra, labels = SyntheticBigEarthNet(BigEarthNetConfig(
        n_classes=8, seed=5, noise_sigma=0.06)).pixels(600)
    keep = np.isin(labels, (6, 7))
    Xtr, Xte, ytr, yte = train_test_split(
        spectra[keep], np.where(labels[keep] == 6, -1.0, 1.0),
        test_fraction=0.3, seed=0)
    classical_acc = SVC(gamma=4.0).fit(Xtr, ytr).score(Xte, yte)
    _row(values, "classical", accuracy=classical_acc, samples=len(ytr))
    for name, device in (("2000q", DWAVE_2000Q),
                         ("advantage", DWAVE_ADVANTAGE)):
        ensemble = QSvmEnsemble(
            SimulatedQuantumAnnealer.for_device(device, sweeps=80),
            gamma=4.0, n_solutions=3).fit(Xtr, ytr)
        _row(values, f"qsvm_{name}", accuracy=ensemble.score(Xte, yte),
             samples=len(ensemble.members_[0].y_))
        _row(values, name, qubits=device.n_qubits,
             couplers=device.n_couplers, max_clique=device.max_clique,
             samples_per_anneal=QuantumSVM(
                 SimulatedQuantumAnnealer.for_device(device)
             ).max_training_samples())
    expect(values["accuracy_qsvm_2000q"] > classical_acc - 0.10,
           "the 2000Q ensemble comes within 10 points of the classical SVM")
    expect(values["samples_qsvm_advantage"] > values["samples_qsvm_2000q"],
           "the Advantage fits larger ensemble members than the 2000Q")
    expect(DWAVE_2000Q.n_qubits == 2048 and DWAVE_ADVANTAGE.n_qubits == 5000,
           "device budgets are 2048 and 5000 qubits")
    expect(values["samples_per_anneal_advantage"]
           > 2 * values["samples_per_anneal_2000q"],
           "the Advantage anneals more than twice the samples of the 2000Q")
    # The sub-sampling requirement is enforced, not merely documented.
    qsvm = QuantumSVM(SimulatedQuantumAnnealer.for_device(
        DWAVE_2000Q, sweeps=10), gamma=4.0)
    rejected = _raises(EmbeddingError, qsvm.fit, Xtr, ytr)
    expect(rejected, "the 2000Q embedding check rejects the full set")
    values["oversized_problem_rejected"] = rejected


@paper_case("E7_covidnet", "Sec. IV-A / Fig. 4 B (COVID-Net CXR)",
            score=("accuracy", "recall_covid19", "external_accuracy",
                   "extended_dataset_accuracy"),
            higher=("a100_over_v100_speedup",))
def e7_covidnet(quick, values, digests):
    gen = SyntheticCovidx(CxrConfig(n_samples=240, noise_sigma=0.02,
                                    seed=0))
    Xtr, Xte, ytr, yte = train_test_split(*gen.generate(),
                                          test_fraction=0.25, seed=0)

    def train(X, y):
        net = CovidNet(seed=0)
        _fit(net, Adam(net.parameters(), lr=3e-3), cross_entropy,
             _minibatches(X, y, 32, epochs=14 if quick else 25))
        return net

    # Detection on (synthetic) COVIDx.
    model = train(Xtr, ytr)
    pred = model.predict(Xte)
    scores = precision_recall_f1(pred, yte, 3)
    values["accuracy"] = accuracy(pred, yte)
    for i, name in enumerate(CXR_CLASSES):
        _row(values, name, precision=scores["precision"][i],
             recall=scores["recall"][i], f1=scores["f1"][i])
    # Generalisation to the unseen-hospital external validation set.
    Xe, ye = gen.generate_external_validation(90)
    values["external_accuracy"] = accuracy(model.predict(Xe), ye)
    # Tensor-core generations: a step's FLOPs and the sustained efficiency
    # cancel, so the A100/V100 step-time ratio is the spec-sheet ratio.
    speedup = NVIDIA_A100.tensor_flops / NVIDIA_V100.tensor_flops
    values["a100_over_v100_speedup"] = speedup
    expect(math.isclose(speedup, 2.5, rel_tol=0.05),
           "A100 is 2.5x (±5%) faster than V100 per train step")
    # COVIDx 'was extended numerous times': retrain on the grown dataset.
    Xn, yn = SyntheticCovidx(CxrConfig(n_samples=120, noise_sigma=0.02,
                                       seed=99)).generate()
    grown = train(np.concatenate([Xtr, Xn]), np.concatenate([ytr, yn]))
    values.update(train_images=len(ytr),
                  extended_train_images=len(ytr) + len(yn),
                  extended_dataset_accuracy=accuracy(grown.predict(Xte), yte))
    floors = {"accuracy": (0.8, 0.6), "recall_covid19": (0.7, 0.5),
              "external_accuracy": (0.55, 0.45),
              "extended_dataset_accuracy": (0.75, 0.55)}
    for metric, (full, smoke) in floors.items():
        expect(values[metric] > (smoke if quick else full),
               f"{metric} above {smoke if quick else full}")


@paper_case("E8_ards_gru", "Sec. IV-B / Fig. 4 A (ARDS GRU time series)",
            error=("gru_mae", "cnn_mae"), higher=("berlin_sensitivity",))
def e8_ards_gru(quick, values, digests):
    target = 1  # SpO2
    cohort = IcuCohort(IcuConfig(n_patients=30, seed=0, min_hours=30,
                                 max_hours=60)).generate()
    X, y, _ = make_imputation_windows(cohort, window=8, target_channel=target)
    Xtr, Xte, ytr, yte = train_test_split(X, y, test_fraction=0.25, seed=0)
    # Missing-value prediction: the paper's GRU (scaled down), the 1-D CNN.
    gru = GruForecaster(Xtr.shape[2], hidden=16, seed=0)
    reg = gru.regularised_parameters()
    cnn = Cnn1dForecaster(Xtr.shape[2], seed=0)
    for net, loss_fn in ((gru, lambda out, yb: mae(out, yb)
                          + l2_regularisation(reg, 1e-5)), (cnn, mae)):
        _fit(net, Adam(net.parameters(), lr=5e-3), loss_fn,
             _minibatches(Xtr, ytr, 64, epochs=10))
        net.eval()
    values.update(
        gru_mae=mae_score(gru.predict(Xte), yte),
        cnn_mae=mae_score(cnn.predict(Xte), yte),
        locf_mae=mae_score(locf_baseline(Xte), yte),
        window_mean_mae=mae_score(mean_baseline(Xte), yte))
    expect(values["gru_mae"] < min(values["locf_mae"],
                                   values["window_mean_mae"]),
           "the GRU beats both clinical baselines")
    expect(values["cnn_mae"] < values["window_mean_mae"],
           "the 1-D CNN beats the window-mean baseline")
    # Sec. IV-B verbatim: GRU(32)x2, dropout 0.2, MAE, Adam lr 1e-4.
    paper_model = GruForecaster(Xtr.shape[2])
    losses = _fit(paper_model, Adam(paper_model.parameters(), lr=1e-4), mae,
                  [(Xtr[:128], ytr[:128])] * 10)
    expect(losses[-1] < losses[0], "paper config: loss falls in 10 steps")
    values.update(paper_config_loss_step1=losses[0],
                  paper_config_loss_step10=losses[-1])
    # Berlin-definition P/F < 300 surveillance: prolonged, not a blip.
    screened = [(rec.has_ards, bool((rec.pf_ratio()[6:] < 300).sum() >= 3))
                for rec in cohort]
    values.update(
        true_positives=sum(ards and flag for ards, flag in screened),
        false_negatives=sum(ards and not flag for ards, flag in screened),
        false_positives=sum(not ards and flag for ards, flag in screened),
        true_negatives=sum(not ards and not flag for ards, flag in screened))
    values["berlin_sensitivity"] = values["true_positives"] / max(
        values["true_positives"] + values["false_negatives"], 1)
    expect(values["berlin_sensitivity"] > 0.9, "P/F sensitivity above 0.9")
    severities = sorted({berlin_severity(float(rec.pf_ratio().min()))
                         for rec in cohort if rec.has_ards})
    expect(bool({"moderate", "severe"} & set(severities)),
           "ARDS patients reach moderate or severe Berlin severity")
    digests["ards_severities"] = stable_digest(severities)


@paper_case("E9_gce_collectives", "Fig. 1 GCE (FPGA collective engine)",
            lower=("gce_us_8r_2mb",),
            higher=("speedup_16r_4kib", "speedup_1024r_4kib",
                    "speedup_1024r_100mib"))
def e9_gce_collectives(quick, values, digests):
    fabric = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR)
    gce = GlobalCollectiveEngine(fabric)
    # Modeled speedup over rank counts and payloads.
    speedups = {}
    for p in (16, 64, 256, 1024):
        for nbytes, label in ((4 << 10, "4kib"), (1 << 20, "1mib"),
                              (100 << 20, "100mib")):
            sw = gce.software_allreduce_time(p, nbytes)
            hw = gce.allreduce_time(p, nbytes)
            speedups[p, label] = sw / hw
            _row(values, f"{p}r_{label}", software_us=sw * 1e6,
                 gce_us=hw * 1e6, speedup=sw / hw)
    expect(speedups[1024, "4kib"] > speedups[16, "4kib"] > 1.0,
           "latency-bound GCE gain grows with rank count")
    expect(all(s >= 1.0 for s in speedups.values()),
           "the GCE never loses to the software ring")
    # Offloaded reduction computes the software result at threaded scale.
    data = np.random.default_rng(0).normal(size=(8, 512))
    outs = run_spmd(
        lambda comm: gce_allreduce(comm, data[comm.rank].copy(), gce), 8)
    expect(all(np.allclose(out, data.sum(axis=0), rtol=1e-12, atol=0.0)
               for out in outs),
           "the offloaded allreduce equals the software sum on every rank")
    digests["offloaded_sum"] = stable_digest(outs[0])
    # The same 2 MB reduction through the functional MPI: simulated clocks.
    payload = np.ones(250_000)

    def sim_time(fn):
        def rank(comm):
            fn(comm)
            return comm.sim_time
        return max(run_spmd(rank, 8, cost_model=fabric))

    t_sw = sim_time(lambda comm: comm.allreduce(payload.copy()))
    t_hw = sim_time(lambda comm: gce_allreduce(comm, payload.copy(), gce))
    expect(t_hw < t_sw, "GCE offload beats the ring on the simulated clock")
    _row(values, "8r_2mb", software_us=t_sw * 1e6, gce_us=t_hw * 1e6)
    # The software backdrop the GCE beats: MPI-style auto-selection.
    chosen = {n: best_allreduce_time(64, n, fabric.alpha, fabric.beta)[1]
              for n in (256, 64 << 10, 64 << 20)}
    expect(chosen[256] == "recursive-doubling",
           "small messages pick the latency-optimal algorithm")
    expect(chosen[64 << 20] in ("ring", "rabenseifner"),
           "large messages pick a bandwidth-optimal algorithm")
    digests["auto_selection"] = stable_digest(sorted(chosen.items()))


@paper_case("E10_nam_sharing", "Sec. II-A NAM (dataset sharing)",
            higher=("speedup_2members", "speedup_20members"),
            lower=("read_s_32stripes",))
def e10_nam_sharing(quick, values, digests):
    # 50 GiB dataset, N group members: duplicate downloads vs one NAM copy.
    speedups = []
    for members in (2, 5, 10, 20):
        study = DatasetSharingStudy(dataset_bytes=50 * GiB, n_members=members)
        speedups.append(study.speedup())
        _row(values, f"{members}members",
             duplicates_min=study.baseline_duplicate_downloads()[
                 "wall_time_s"] / 60,
             nam_min=study.nam_shared()["wall_time_s"] / 60,
             speedup=study.speedup(),
             traffic_reduction=study.traffic_reduction())
        expect(study.traffic_reduction() == members,
               "external traffic falls exactly N-fold")
    expect(all(s > 1.5 for s in speedups), "NAM > 1.5x at every group size")
    expect(speedups[-1] > speedups[0], "the gain grows with group size")
    # The NAM is a finite shared resource; eviction reclaims it.
    nam = NetworkAttachedMemory(capacity_GB=100.0)
    nam.stage("bigearthnet-a", 60 * GiB)
    expect(_raises(MemoryError, nam.stage, "bigearthnet-b", 60 * GiB),
           "staging past the NAM's capacity is refused")
    nam.evict("bigearthnet-a")
    nam.stage("bigearthnet-b", 60 * GiB)
    # The SSSM side of staging: Lustre-style stripe width vs read time.
    pfs = ParallelFileSystem("JUST", n_targets=32)
    times = []
    for stripes in (1, 4, 16, 32):
        handle = pfs.create(f"/covid-x-{stripes}", 120 * GiB,
                            stripe_count=stripes)
        times.append(pfs.read_time(handle))
        _row(values, f"{stripes}stripes", read_s=times[-1],
             layout_gbps=pfs.aggregate_read_GBps(handle))
    expect(times == sorted(times, reverse=True),
           "wider stripes never read slower")
    expect(times[0] / times[-1] > 8, "32 stripes read > 8x faster than one")


@paper_case("E11_cloud_interop", "Sec. III-B (cloud interop + economics)",
            lower=("cloud_usd_128gpu_10h_5runs",
                   "grant_usd_128gpu_10h_5runs"))
def e11_cloud_interop(quick, values, digests):
    # One TensorFlow image: DockerHub -> cloud Docker and JUWELS Singularity.
    docker_image = ContainerImage(
        name="tensorflow/tensorflow", tag="2.5.0-gpu", format="docker",
        layers=("ubuntu:20.04", "pip:tensorflow==2.5.0",
                "pip:horovod==0.24.2"),
        needs_gpu=True)
    cloud_token = cloud_docker().run(docker_image)
    sing = singularity_from_docker(docker_image)
    hpc_token = juwels_singularity().run(sing)
    expect(docker_image.digest() == sing.digest(),
           "Docker -> Singularity conversion preserves the content digest")
    digests["image_content"] = docker_image.digest()
    digests["runtimes"] = stable_digest(cloud_token.split(":")[0],
                                        hpc_token.split(":")[0])
    # A Jupyter kernel on JUWELS modules migrates to a cloud container.
    kernel = JupyterKernelSpec(
        name="rs-dl",
        modules=(("Python", "3.9.6"), ("TensorFlow", "2.5.0"),
                 ("Horovod", None), ("CUDA", "11.0")),
        python_packages=("dask", "scikit-learn"))
    resolved = kernel.resolve(jsc_module_environment())
    image = kernel.to_container()
    ok, reason = cloud_docker().can_run(image)
    expect(ok and image.needs_gpu,
           f"the kernel's GPU container runs on the cloud side ({reason})")
    digests["resolved_kernel"] = stable_digest(sorted(resolved.items()))
    # The paper's campaigns on p3.16xlarge ($24/h) vs an HPC grant.
    model = CloudCostModel(instance=AWS_P3_16XLARGE)
    for n_gpus, hours, runs in ((8, 10, 1), (96, 10, 3), (128, 10, 5)):
        campaign = CampaignSpec(n_gpus=n_gpus, hours_per_run=hours,
                                n_runs=runs)
        grant_usd = model.grant_cost_usd(campaign, 100_000)
        _row(values, f"{n_gpus}gpu_{hours}h_{runs}runs",
             gpu_hours=campaign.gpu_hours,
             cloud_usd=model.cloud_cost_usd(campaign), grant_usd=grant_usd)
        expect(grant_usd == 0, "the campaign is free on an HPC grant")
    expect(values["cloud_usd_128gpu_10h_5runs"] > 10_000,
           "the 128-GPU campaign costs more than $10,000 in the cloud")
    # Free tiers cannot interconnect GPUs for the scaling study at all.
    free = CloudCostModel(instance=FREE_TIER_COLAB)
    expect(not free.speedup_study_feasible(max_gpus=96)
           and _raises(ValueError, free.cloud_cost_usd,
                       CampaignSpec(n_gpus=96, hours_per_run=1)),
           "the 96-GPU study is infeasible on the free tier")


@paper_case("E12_modular_placement",
            "Fig. 1 federation (cross-module jobs, co-allocation)",
            lower=("intra_booster_us", "coallocated_makespan_h"),
            higher=("overlap_win",))
def e12_modular_placement(quick, values, digests):
    # The same Horovod-style job inside the JUWELS booster vs spanning its
    # booster and cluster: priced as the scheduler prices the same bytes.
    juwels = juwels_system()

    def fn(comm):
        for _ in range(4):
            comm.allreduce(np.ones(250_000))   # 2 MB gradients
        return comm.sim_time

    def sim_time(rank_module):
        return max(run_spmd(fn, 8, cost_model=juwels.placement(rank_module)))

    intra = sim_time(["booster"] * 8)
    spanning = sim_time(["booster"] * 4 + ["cluster"] * 4)
    expect(spanning > intra * 1.2, "spanning modules costs > 1.2x intra")
    values.update(intra_booster_us=intra * 1e6,
                  spanning_modules_us=spanning * 1e6,
                  federation_penalty=spanning / intra)
    # An in-situ solver + analytics job: co-allocated vs serialised.
    def run(job):
        sched = MsaScheduler(_msa("co", cm=8, esb=8, dam=4, storage_pb=1.0))
        sched.submit(job)
        return sched.run()

    solver = JobPhase(name="solver",
                      workload=WorkloadClass.SIMULATION_HIGHSCALE,
                      work_flops=1e17, nodes=6, uses_gpu=True,
                      parallel_fraction=0.99)
    analytics = JobPhase(name="analytics",
                         workload=WorkloadClass.DATA_ANALYTICS,
                         work_flops=2e15, nodes=2, memory_GB_per_node=400.0)
    coupled = run(Job(name="insitu", phases=[CoAllocatedPhase(
        name="insitu", components=(solver, analytics),
        coupling_bytes=50e9)]))
    serial = run(Job(name="staged", phases=[solver, analytics]))
    expect(coupled.makespan < serial.makespan,
           "co-allocation finishes before the serialised phases")
    expect({a.module_key for a in coupled.allocations} == {"esb", "dam"},
           "the co-allocated components run on the ESB and the DAM")
    values.update(coallocated_makespan_h=coupled.makespan / 3600,
                  serialised_makespan_h=serial.makespan / 3600,
                  overlap_win=serial.makespan / coupled.makespan)


@paper_case("E13_realtime_stream",
            "Fig. 3 A ((near) real-time disaster processing)",
            lower=("p99_s_2scenes", "p99_s_14scenes",
                   *(f"nodes_for_2s_p99_{r}scenes" for r in (4, 8, 16))))
def e13_realtime_stream(quick, values, digests):
    # Scene stream on 8 ESB nodes (0.5 s/scene inference).
    p99s = []
    for rate in (2, 6, 10, 14):
        config = StreamingConfig(
            arrival_rate_per_s=float(rate), service_time_s=0.5, n_servers=8,
            duration_s=1500.0, seed=0)
        report = simulate_stream(config)
        p99s.append(report.p99)
        _row(values, f"{rate}scenes", offered_load=config.offered_load,
             p50_s=report.p50, p99_s=report.p99,
             utilisation=report.utilisation,
             max_queue=report.max_queue_depth)
    expect(p99s == sorted(p99s), "p99 latency grows with offered load")
    expect(p99s[0] < 1.0, "light-load p99 stays near the service time")
    expect(p99s[-1] > p99s[0] * 2, "p99 more than doubles near saturation")
    # Provisioning: minimal ESB nodes for a 2 s p99 deadline.
    nodes = []
    for rate in (4, 8, 16):
        n, report = capacity_for_deadline(
            arrival_rate_per_s=float(rate), service_time_s=0.5,
            deadline_s=2.0)
        nodes.append(n)
        expect(report.p99 <= 2.0, "the provisioned pool meets the deadline")
        _row(values, f"{rate}scenes", nodes_for_2s_p99=n,
             provisioned_p99_s=report.p99,
             provisioned_utilisation=report.utilisation)
    expect(nodes == sorted(nodes), "required capacity grows with scene rate")


def _serve(rate: float, replicas: int, duration_s: float = 30.0,
           autoscale: bool = False):
    """Heavy requests (32-patch scenes) put the ESB capacity knee near 95
    req/s per replica — low enough to sweep past with small traces."""
    return simulate_serving(ServingConfig(
        trace=TraceConfig(rate_per_s=rate, duration_s=duration_s,
                          slo_deadline_s=0.5, samples_per_request=32,
                          seed=0, key_universe=1 << 20),
        autoscaler=AutoscalerConfig(enabled=autoscale,
                                    min_replicas=replicas if autoscale else 1,
                                    max_replicas=8),
        initial_replicas=replicas))


@paper_case("E14_serving_slo",
            "online serving (SLO capacity, autoscaling, failover)",
            lower=("p99_ms_autoscaled", "deadline_misses_autoscaled",
                   *(f"min_replicas_{r}rps" for r in (60, 120, 240))),
            higher=("goodput_per_s_autoscaled",))
def e14_serving_slo(quick, values, digests):
    rates = (60, 120, 240)
    # Capacity surface over rate x fixed pool size; minimal pool per rate.
    pools = {(rate, n): _serve(float(rate), n)
             for rate in rates for n in range(1, 5)}
    for (rate, n), rep in pools.items():
        _row(values, f"{rate}rps_{n}replicas", p99_ms=rep.p99 * 1e3,
             goodput_per_s=rep.goodput_per_s,
             miss_rate=rep.metrics.deadline_miss_rate,
             meets_slo=bool(rep.meets_slo()))
    for rate in rates:
        expect(pools[rate, 1].p99 >= pools[rate, 4].p99,
               "more replicas never hurt the tail at a given rate")
    expect(not pools[240, 1].meets_slo() and pools[240, 4].meets_slo(),
           "one replica cannot carry 240 req/s, four can")
    needed = []
    for rate in rates:
        n = next((n for n in range(1, 5) if pools[rate, n].meets_slo()), 0)
        expect(n > 0, "a pool of at most four replicas meets the SLO")
        needed.append(n)
        values[f"min_replicas_{rate}rps"] = n
    expect(needed == sorted(needed) and needed[-1] > needed[0],
           "capacity grows with rate and the sweep spans the knee")
    # The headline: same hardware, same 150 req/s trace, pinned vs scaled.
    fixed = _serve(150.0, 1, duration_s=40.0)
    auto = _serve(150.0, 1, duration_s=40.0, autoscale=True)
    expect(not fixed.meets_slo() and auto.meets_slo(),
           "the fixed pool misses the SLO and the autoscaled pool meets it")
    expect(auto.goodput_per_s > fixed.goodput_per_s * 2,
           "autoscaling more than doubles goodput")
    expect(auto.peak_replicas > 1, "the autoscaler scaled up")
    for name, rep in (("fixed", fixed), ("autoscaled", auto)):
        _row(values, name, p99_ms=rep.p99 * 1e3,
             goodput_per_s=rep.goodput_per_s,
             deadline_misses=rep.metrics.deadline_misses,
             peak_replicas=rep.peak_replicas)
    digests["autoscaled_report"] = stable_digest(auto.to_text())


@paper_case("ABL_design_choices", "design-choice ablations",
            lower=("makespan_h_patience_3", "bytes_sent_fp16_wire",
                   "state_bytes_zero_stage1", "grad_bytes_zero_stage2",
                   "nam_checkpoint_s_100gb",
                   "late_community_wait_s_fair_share"),
            higher=("gce_speedup_128gpu",), score=("accuracy_fp16_wire",))
def abl_design_choices(quick, values, digests):
    # Scheduler patience: how bad a feasible-now placement may be before a
    # job waits for its matching module.
    reports = {}
    for tolerance, key in ((1.0, "1"), (3.0, "3"), (10.0, "10"),
                           (1e6, "unlimited")):
        sched = MsaScheduler(_msa("MSA", cm=32, esb=16, dam=8,
                                  storage_pb=1.0),
                             patience_factor=tolerance)
        sched.submit_all(synthetic_workload_mix(
            n_jobs=14, seed=3, mean_interarrival_s=60.0))
        report = reports[key] = sched.run()
        _row(values, f"patience_{key}", makespan_h=report.makespan / 3600,
             turnaround_h=report.mean_turnaround / 3600,
             energy_kwh=report.energy_kwh)
    expect(reports["3"].makespan <= reports["unlimited"].makespan * 1.05,
           "greedy placement does not beat the default patience on makespan")
    # Gradient compression: fp16 wire vs fp32 in functional training.
    rng = np.random.default_rng(0)
    X = np.concatenate([rng.normal(-2, 1, (64, 2)), rng.normal(2, 1, (64, 2))])
    Y = np.array([0] * 64 + [1] * 64)

    def train(comm, compression):
        model = MLP([2, 8, 2], seed=0)
        broadcast_parameters(model, comm)
        _fit(model, DistributedOptimizer(SGD(model.parameters(), lr=0.05),
                                         comm, compression=compression),
             cross_entropy, _shard_batches(comm, X, Y, 16, epochs=3))
        return accuracy(model.predict(X), Y), comm.state.bytes_sent

    for wire, compression in (("fp32", None), ("fp16", Fp16Compression())):
        per_rank = run_spmd(train, 4, args=(compression,))
        _row(values, f"{wire}_wire", accuracy=per_rank[0][0],
             bytes_sent=sum(b for _, b in per_rank))
    expect(abs(values["accuracy_fp32_wire"]
               - values["accuracy_fp16_wire"]) < 0.05,
           "fp16 gradient compression keeps accuracy within 0.05")
    expect(values["bytes_sent_fp16_wire"]
           < 0.5 * values["bytes_sent_fp32_wire"],
           "fp16 gradient compression more than halves the bytes sent")
    # ZeRO stages: optimiser/gradient memory per rank vs replication.
    Xz = np.random.default_rng(0).normal(size=(32, 2))
    Yz = (Xz[:, 0] > 0).astype(int)

    def measure(comm):
        model = MLP([2, 64, 2], seed=0)
        broadcast_parameters(model, comm)
        out = {}
        for name, cls in (("stage1", ZeroStage1Optimizer),
                          ("stage2", ZeroStage2Optimizer)):
            opt = cls(model.parameters(), comm)
            _fit(model, opt, cross_entropy, [(Xz, Yz)])
            out[name] = (opt.local_state_bytes,
                         getattr(opt, "peak_grad_shard_bytes",
                                 opt.total_elements * 8),
                         opt.unsharded_state_bytes)
        return out

    rank0 = run_spmd(measure, 4)[0]
    full_state = rank0["stage1"][2]
    _row(values, "replicated", state_bytes=full_state,
         grad_bytes=full_state // 2)
    for name, (state, grad, _) in rank0.items():
        _row(values, f"zero_{name}", state_bytes=state, grad_bytes=grad)
    expect(rank0["stage1"][0] <= full_state // 4 + 64,
           "ZeRO stage 1 shards the optimiser state four ways")
    expect(rank0["stage2"][1] <= (full_state // 2) // 4 + 64,
           "ZeRO stage 2 shards the gradients four ways too")
    # GCE inside training: the Fig. 3 curve on the in-network engine.
    base = DistributedTrainingPerfModel()
    offload = replace(base, gce=GlobalCollectiveEngine(base.fabric))
    for ring, gce in zip(base.scaling_curve([64, 128, 256]),
                         offload.scaling_curve([64, 128, 256])):
        _row(values, f"{ring.n_gpus}gpu", ring_speedup=ring.speedup,
             gce_speedup=gce.speedup)
        expect(gce.speedup >= ring.speedup * 0.99,
               "GCE offload inside training never loses to the ring")
    # Checkpoint path: NAM vs striped PFS, 32 writers (ref [12]).
    mgr = CheckpointManager(
        nam=NetworkAttachedMemory(capacity_GB=256),
        pfs=ParallelFileSystem("fs", n_targets=8))
    for size_gb in (1, 10, 50, 100):
        times = mgr.path_comparison(size_gb * GiB)
        _row(values, f"{size_gb}gb", nam_checkpoint_s=times["nam"],
             pfs_checkpoint_s=times["pfs"],
             nam_advantage=times["pfs"] / times["nam"])
        expect(times["nam"] < times["pfs"], "NAM checkpoint beats the PFS")
    # Queue policy: FCFS-backfill vs fair-share under a flooding community.
    def job(name, user):
        return Job(name=name, user=user, phases=[JobPhase(
            name="train", workload=WorkloadClass.ML_TRAINING,
            work_flops=1e17, nodes=8, uses_gpu=True, uses_tensor_cores=True,
            parallel_fraction=0.99)])

    for key, policy in (("fcfs", SchedulerPolicy.FCFS_BACKFILL),
                        ("fair_share", SchedulerPolicy.FAIR_SHARE)):
        jobs = [job(f"rs-{i}", "remote-sensing") for i in range(4)]
        jobs.append(job("health-0", "health"))
        report = schedule_workload(_msa("fair", cm=8, esb=8), jobs,
                                   queue_policy=policy)
        _row(values, key, late_community_wait_s=report.wait_times["health-0"],
             makespan_s=report.makespan)
    expect(values["late_community_wait_s_fair_share"]
           < values["late_community_wait_s_fcfs"],
           "fair-share cuts the late community's wait")
