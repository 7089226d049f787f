"""Distributed DL training — the Horovod/DeepSpeed layer of the paper.

Sec. III-A: "distributed training employs a multi-node data parallelism
strategy ... using multiple GPUs and communicating with MPI to synchronise
the learning process", via Horovod or "more recently, DeepSpeed".

* :mod:`repro.distributed.horovod` — Horovod-style API over
  :mod:`repro.mpi`: ``DistributedOptimizer`` (fused-buffer ring-allreduce
  gradient averaging), ``broadcast_parameters``, elastic training,
* :mod:`repro.distributed.deepspeed` — a ZeRO-stage-1-style optimizer with
  sharded optimiser state,
* :mod:`repro.distributed.compression` — gradient compression (fp16),
* :mod:`repro.distributed.perfmodel` — the analytic performance model that
  regenerates the paper's Fig. 3 scaling study (96 → 128 A100 GPUs) from
  device specs and collective cost models.
"""

from repro.distributed.horovod import (
    DistributedOptimizer,
    broadcast_parameters,
    global_batch_indices,
    ElasticRecovery,
    ElasticRunResult,
    run_elastic_training,
)
from repro.distributed.deepspeed import ZeroStage1Optimizer, ZeroStage2Optimizer
from repro.distributed.compression import NoCompression, Fp16Compression
from repro.distributed.perfmodel import (
    DistributedTrainingPerfModel,
    InferencePerfModel,
    ScalingPoint,
    TrainingRecipe,
)

__all__ = [
    "DistributedOptimizer",
    "broadcast_parameters",
    "global_batch_indices",
    "ElasticRecovery",
    "ElasticRunResult",
    "run_elastic_training",
    "ZeroStage1Optimizer",
    "ZeroStage2Optimizer",
    "NoCompression",
    "Fp16Compression",
    "DistributedTrainingPerfModel",
    "InferencePerfModel",
    "ScalingPoint",
    "TrainingRecipe",
]
