"""Analytic performance model for the Fig. 3 scaling study (E3).

The paper reports that Horovod distributed training of a RESNET-50-class
CNN on BigEarthNet "indicates a significant speed-up of training time
without loosing accuracy", initially on 96 GPUs and — after tuning per
Sedona et al. [20] — with "even a better speed-up ... using 128
interconnected GPUs".

This model composes what the rest of the library provides:

* per-step compute time from GPU specs (tensor-core throughput, achievable
  efficiency),
* allreduce time from the α-β collective models of the booster fabric,
* optional gradient compression (halves wire bytes) and compute/comm
  overlap — the [20]-style tuning that lifts the 128-GPU point.

It yields per-GPU-count epoch times, speedups and parallel efficiencies —
the series Fig. 3 plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.hardware import GpuSpec, NodeSpec, NVIDIA_A100
from repro.simnet.costs import (ALLREDUCE_TIMES, CommCostModel,
                                best_allreduce_time)
from repro.simnet.link import LinkKind
from repro.ml.models.resnet import ResNetShape, resnet50_config


#: Local mini-batch of one GPU.
BATCH_PER_GPU = 128
#: Sustained fraction of tensor-core peak a real ResNet-50 training step
#: achieves (mixed-precision ResNet-50 reaches ~5–10% of A100 tensor peak).
TRAINING_GPU_EFFICIENCY = 0.08
#: Backward pass costs ~2x forward.
BACKWARD_FACTOR = 2.0


@dataclass(frozen=True)
class TrainingRecipe:
    """Tunables of a distributed training run."""

    #: Bytes per gradient element on the wire (4 = fp32, 2 = fp16 compressed).
    grad_wire_bytes: int = 4
    #: Fraction of allreduce hidden behind backprop (Horovod overlaps
    #: per-layer reductions with remaining backward compute).
    comm_overlap: float = 0.0
    allreduce_algorithm: str = "ring"

    def tuned(self) -> "TrainingRecipe":
        """The [20]-style tuned recipe: fp16 wire + aggressive overlap."""
        return TrainingRecipe(grad_wire_bytes=2, comm_overlap=0.8,
                              allreduce_algorithm="auto")


@dataclass(frozen=True)
class ScalingPoint:
    """One row of the Fig. 3 scaling table."""

    n_gpus: int
    step_time_s: float
    epoch_time_s: float
    speedup: float
    efficiency: float
    comm_fraction: float


@dataclass
class DistributedTrainingPerfModel:
    """Epoch-time model for data-parallel training on an MSA booster."""

    model_shape: ResNetShape = field(default_factory=resnet50_config)
    gpu: GpuSpec = NVIDIA_A100
    fabric: CommCostModel = field(
        default_factory=lambda: CommCostModel.of_kind(LinkKind.INFINIBAND_HDR))
    dataset_size: int = 269_695          # BigEarthNet train split of [18]
    recipe: TrainingRecipe = field(default_factory=TrainingRecipe)
    #: Optional ESB Global Collective Engine: when set, gradient allreduces
    #: are offloaded to the in-network FPGA tree instead of the software
    #: ring (the booster's headline fabric feature).
    gce: Optional["GlobalCollectiveEngine"] = None

    # -- components ----------------------------------------------------------
    def compute_time_per_step(self) -> float:
        """Forward+backward time for one local mini-batch on one GPU."""
        flops = (
            self.model_shape.flops_per_sample
            * BATCH_PER_GPU
            * (1.0 + BACKWARD_FACTOR)
        )
        sustained = self.gpu.tensor_flops * TRAINING_GPU_EFFICIENCY
        return flops / sustained

    def grad_bytes(self) -> float:
        return self.model_shape.n_parameters * self.recipe.grad_wire_bytes

    def allreduce_time(self, n_gpus: int) -> float:
        if n_gpus <= 1:
            return 0.0
        if self.gce is not None:
            return self.gce.allreduce_time(n_gpus, self.grad_bytes())
        f, algorithm = self.fabric, self.recipe.allreduce_algorithm
        if algorithm == "auto":
            return best_allreduce_time(n_gpus, self.grad_bytes(), f.alpha,
                                       f.beta)[0]
        return ALLREDUCE_TIMES[algorithm](n_gpus, self.grad_bytes(), f.alpha,
                                          f.beta)

    def step_time(self, n_gpus: int) -> float:
        compute = self.compute_time_per_step()
        comm = self.allreduce_time(n_gpus)
        exposed = comm * (1.0 - self.recipe.comm_overlap)
        hidden = comm * self.recipe.comm_overlap
        backward = compute * BACKWARD_FACTOR / (1.0 + BACKWARD_FACTOR)
        # Hidden communication can only hide under the backward pass.
        return compute + exposed + max(0.0, hidden - backward)

    def steps_per_epoch(self, n_gpus: int) -> int:
        global_batch = BATCH_PER_GPU * n_gpus
        return max(1, math.ceil(self.dataset_size / global_batch))

    def epoch_time(self, n_gpus: int) -> float:
        return self.steps_per_epoch(n_gpus) * self.step_time(n_gpus)

    # -- the Fig. 3 series ------------------------------------------------------
    def scaling_curve(self, gpu_counts: Sequence[int]) -> list[ScalingPoint]:
        if not gpu_counts:
            raise ValueError("need at least one GPU count")
        base = self.epoch_time(1)
        points = []
        for p in gpu_counts:
            if p < 1:
                raise ValueError("GPU counts must be >= 1")
            step = self.step_time(p)
            epoch = self.epoch_time(p)
            comm = self.allreduce_time(p) * (1.0 - self.recipe.comm_overlap)
            points.append(ScalingPoint(
                n_gpus=p,
                step_time_s=step,
                epoch_time_s=epoch,
                speedup=base / epoch,
                efficiency=base / epoch / p,
                comm_fraction=min(1.0, comm / step) if step > 0 else 0.0,
            ))
        return points


# ---------------------------------------------------------------------------
# online inference (the serving subsystem's service-time source)
# ---------------------------------------------------------------------------

#: Sustained fraction of tensor-core peak at online batch sizes; the
#: sim-gpu kernel model prices a generic fused kernel at the same figure.
INFERENCE_GPU_EFFICIENCY = 0.06
#: Sustained fraction of CPU vector peak for the fallback path.
INFERENCE_CPU_EFFICIENCY = 0.30
#: Per-batch fixed cost: kernel launch, batch assembly, host<->device.
INFERENCE_HOST_OVERHEAD_S = 3.0e-3
#: The network the serving plane runs.
INFERENCE_MODEL = resnet50_config()


class InferencePerfModel:
    """Batch service time of online inference on a concrete node spec.

    The CM-train / ESB-infer pattern (Sec. II-A) needs a service-time model
    grounded in the hardware catalogue rather than a constant: a micro-batch
    of ``b`` samples costs a fixed host-side overhead (launch, packing, PCIe
    staging) plus ``b`` forward passes at the sustained throughput of the
    node's best device.  GPU nodes run the tensor-core path at a *small-
    batch* efficiency — online batches are far below the saturating sizes
    training enjoys — while CPU-only nodes (CM) fall back to the vector-FMA
    peak.  The serving batcher and autoscaler consume this model directly.
    """

    def sustained_flops(self, node_spec: NodeSpec) -> float:
        """Sustained inference FLOP/s one node of ``node_spec`` delivers."""
        if node_spec.gpu_count > 0:
            peak = node_spec.gpu_tensor_flops or node_spec.gpu_peak_flops
            return peak * INFERENCE_GPU_EFFICIENCY
        return node_spec.cpu_peak_flops * INFERENCE_CPU_EFFICIENCY

    def sample_time(self, node_spec: NodeSpec) -> float:
        """Marginal per-sample forward time on one node (no overhead)."""
        return INFERENCE_MODEL.flops_per_sample / self.sustained_flops(node_spec)

    def batch_time(self, batch_samples: int, node_spec: NodeSpec,
                   n_nodes: int) -> float:
        """Service time of one micro-batch of ``batch_samples`` samples."""
        if batch_samples < 1:
            raise ValueError("a batch needs at least one sample")
        if n_nodes < 1:
            raise ValueError("need at least one node")
        compute = batch_samples * self.sample_time(node_spec) / n_nodes
        return INFERENCE_HOST_OVERHEAD_S + compute

    def as_phase(self, batch_samples: int):
        """The equivalent :class:`~repro.core.jobs.JobPhase` for matchmaking.

        Lets the serving replica pool reuse the batch scheduler's
        placement scoring (:func:`repro.core.scheduler.rank_placements`)
        with a work profile consistent with this service-time model.
        """
        from repro.core.jobs import JobPhase, WorkloadClass

        return JobPhase(
            name="serve-replica",
            workload=WorkloadClass.ML_INFERENCE,
            work_flops=INFERENCE_MODEL.flops_per_sample * batch_samples,
            nodes=1,
            parallel_fraction=0.99,
            uses_gpu=True,
            uses_tensor_cores=True,
            memory_GB_per_node=8.0,
            efficiency=INFERENCE_GPU_EFFICIENCY,
        )


# ---------------------------------------------------------------------------
# per-kernel device cost (the lazy tensor engine's sim-gpu clock source)
# ---------------------------------------------------------------------------

#: Achievable fraction of peak HBM bandwidth (STREAM-like).
KERNEL_HBM_EFFICIENCY = 0.80
#: Fixed per-launch cost: driver dispatch + kernel setup.
KERNEL_LAUNCH_OVERHEAD_S = 5.0e-6


@dataclass(frozen=True)
class KernelCostModel:
    """Roofline time for one fused GPU kernel.

    Where :class:`InferencePerfModel` prices a whole forward pass,
    this prices a single kernel launch: a fixed dispatch overhead plus
    the larger of the compute time at sustained FLOP/s and the HBM time
    at sustained bandwidth.  Charging the overhead once per *fused*
    kernel instead of once per primitive op is exactly the effect the
    engine's fuser exists to exhibit — small-tensor workloads on a
    V100/A100 are launch- and bandwidth-bound, not FLOP-bound.
    """

    gpu: GpuSpec

    @property
    def sustained_flops(self) -> float:
        return self.gpu.tensor_flops * INFERENCE_GPU_EFFICIENCY

    @property
    def sustained_bandwidth(self) -> float:
        return self.gpu.memory_bw_GBps * 1e9 * KERNEL_HBM_EFFICIENCY

    def kernel_time(self, flops: float, bytes_moved: float) -> float:
        """Launch + max(compute, memory) seconds for one fused kernel."""
        compute = flops / self.sustained_flops
        memory = bytes_moved / self.sustained_bandwidth
        return KERNEL_LAUNCH_OVERHEAD_S + max(compute, memory)
