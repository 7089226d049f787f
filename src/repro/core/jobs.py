"""Heterogeneous application workloads (Fig. 2 of the paper).

Fig. 2 groups the JSC application portfolio into three user types:

1. low/medium-scalable codes with high data management — served by the
   general-purpose **cluster** module,
2. highly scalable codes with regular communication — served by the
   **booster**,
3. applications needing characteristics of both plus innovative modules
   (large-memory analytics, ML training on GPUs, quantum optimisation) —
   served by *combinations* of modules on one well-interconnected platform.

A :class:`Job` is a sequence of :class:`JobPhase`s; each phase carries a
resource-demand profile (FLOPs, Amdahl parallel fraction, GPU/tensor-core
use, per-node memory, I/O and communication volume).  The runtime of a phase
on a candidate module follows from the module's node spec and fabric — this
is the model the scheduler's matchmaking minimises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from repro.core.module import ComputeModule
from repro.core.hardware import GB


class JobStatus(str, Enum):
    """Failure-aware job lifecycle (production batch-system semantics).

    ``PENDING -> RUNNING -> COMPLETED`` is the happy path; an injected
    fault moves a running job to ``FAILED``, and the retry policy either
    puts it back in the queue (``REQUEUED``, after backoff) or leaves it
    terminally ``FAILED`` once retries are exhausted.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    REQUEUED = "requeued"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.COMPLETED, JobStatus.FAILED)


class WorkloadClass(str, Enum):
    """Application classes from Fig. 2."""

    SIMULATION_LOWSCALE = "simulation-lowscale"      # data-mgmt heavy, CM
    SIMULATION_HIGHSCALE = "simulation-highscale"    # regular comm, booster
    ML_TRAINING = "ml-training"                      # GPU/tensor-core bound
    ML_INFERENCE = "ml-inference"                    # scale-out, modest compute
    DATA_ANALYTICS = "data-analytics"                # large memory (Spark/DAM)
    QUANTUM_OPT = "quantum-optimisation"             # annealer-offloaded


@dataclass(frozen=True)
class JobPhase:
    """One phase of a job and its resource-demand profile."""

    name: str
    workload: WorkloadClass
    work_flops: float                    # total useful floating-point work
    nodes: int = 1                       # nodes requested
    parallel_fraction: float = 0.95      # Amdahl's f
    uses_gpu: bool = False
    uses_tensor_cores: bool = False
    memory_GB_per_node: float = 16.0
    io_bytes: float = 0.0                # volume read from/written to SSSM
    comm_bytes_per_node: float = 0.0     # inter-node traffic per node
    #: Achievable fraction of peak on a well-matched device.
    efficiency: float = 0.10

    def __post_init__(self) -> None:
        if self.work_flops < 0 or self.nodes < 1:
            raise ValueError("work must be non-negative and nodes >= 1")
        if not (0.0 <= self.parallel_fraction <= 1.0):
            raise ValueError("parallel_fraction must be in [0, 1]")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("efficiency must be in (0, 1]")


@dataclass(frozen=True)
class CoAllocatedPhase:
    """A phase whose components run *simultaneously* on different modules.

    The MSA's signature capability (the paper's conclusion: scheduling
    'heterogeneous workloads onto matching combinations of MSA module
    resources'): e.g. a solver component on the booster streaming to an
    in-situ analytics component on the DAM.  ``components`` maps a module
    kind preference to a :class:`JobPhase`; all components are allocated
    together and released when the slowest finishes.
    """

    name: str
    components: tuple[JobPhase, ...]
    #: Data exchanged between components over the federation per run.
    coupling_bytes: float = 0.0

    def __post_init__(self) -> None:
        if len(self.components) < 2:
            raise ValueError("co-allocation needs at least two components")
        if self.coupling_bytes < 0:
            raise ValueError("coupling_bytes must be non-negative")


@dataclass
class Job:
    """A (possibly multi-phase, possibly multi-module) application run."""

    name: str
    phases: list             # JobPhase | CoAllocatedPhase entries
    arrival_time: float = 0.0
    #: Submitting community ("remote-sensing", "health", ...) — the paper's
    #: centre serves many; fair-share scheduling keys on this.
    user: str = "default"

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("a job needs at least one phase")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be non-negative")


# ---------------------------------------------------------------------------
# runtime model
# ---------------------------------------------------------------------------

#: Penalty factor when a phase's working set exceeds node memory and must
#: spill to NVM (if present) or to the filesystem.
NVM_SPILL_PENALTY = 2.5
FS_SPILL_PENALTY = 8.0

#: Throughput of a storage module assumed reachable by a phase (shared).
DEFAULT_IO_GBps = 40.0


def node_throughput(phase: JobPhase, module: ComputeModule) -> float:
    """Sustained FLOP/s one node of ``module`` delivers for ``phase``."""
    spec = module.node_spec
    if phase.uses_gpu and spec.gpu_count > 0:
        peak = spec.gpu_tensor_flops if (
            phase.uses_tensor_cores and spec.gpu_tensor_flops > 0
        ) else spec.gpu_peak_flops
    elif phase.workload in (
        WorkloadClass.SIMULATION_LOWSCALE, WorkloadClass.DATA_ANALYTICS
    ):
        # Data-management-heavy codes are scalar/latency bound: they see the
        # cores' out-of-order scalar throughput, not the vector-FMA peak —
        # this is why fat cluster cores beat manycore boosters on them.
        peak = spec.cpu.scalar_ops_per_s * spec.cpu_sockets
    else:
        peak = spec.cpu_peak_flops
    return peak * phase.efficiency


def memory_penalty(phase: JobPhase, module: ComputeModule) -> float:
    """Spill multiplier when the working set exceeds the DDR+HBM tier."""
    mem = module.node_spec.memory
    fast = mem.ddr_GB + mem.hbm_GB
    if phase.memory_GB_per_node <= fast:
        return 1.0
    if phase.memory_GB_per_node <= fast + mem.nvm_GB:
        return NVM_SPILL_PENALTY
    return FS_SPILL_PENALTY


def phase_runtime(
    phase: JobPhase,
    module: ComputeModule,
    n_nodes: Optional[int] = None,
    io_GBps: float = DEFAULT_IO_GBps,
) -> float:
    """Estimated runtime (s) of ``phase`` on ``n_nodes`` of ``module``.

    Amdahl compute + α-β communication + shared-storage I/O, with memory
    spill penalties.  Used both by the scheduler's matchmaking and by the
    Fig. 2 experiment to score placements.
    """
    n = n_nodes if n_nodes is not None else min(phase.nodes, module.n_nodes)
    if n < 1:
        raise ValueError("need at least one node")
    tput = node_throughput(phase, module)
    f = phase.parallel_fraction
    serial = phase.work_flops * (1.0 - f) / tput
    parallel = phase.work_flops * f / (tput * n)
    compute = (serial + parallel) * memory_penalty(phase, module)

    comm = 0.0
    if n > 1 and phase.comm_bytes_per_node > 0:
        model = module.cost_model
        # Each node exchanges its volume with neighbours; charge ~log(n)
        # latency rounds plus the serialisation of its own traffic.
        comm = (
            math.ceil(math.log2(n)) * model.alpha * 1000
            + phase.comm_bytes_per_node * model.beta
        )

    io = phase.io_bytes / (io_GBps * 1e9) if phase.io_bytes > 0 else 0.0
    return compute + comm + io


# ---------------------------------------------------------------------------
# Fig. 2 workload mix
# ---------------------------------------------------------------------------

def _lowscale_job(rng: np.random.Generator, i: int, t: float) -> Job:
    return Job(
        name=f"sim-lowscale-{i}",
        arrival_time=t,
        phases=[JobPhase(
            name="solve",
            workload=WorkloadClass.SIMULATION_LOWSCALE,
            work_flops=rng.uniform(0.5, 2.0) * 1e15,
            nodes=int(rng.integers(2, 8)),
            parallel_fraction=0.85,
            memory_GB_per_node=rng.uniform(32, 128),
            io_bytes=rng.uniform(0.2, 1.0) * 100 * GB,
        )],
    )


def _highscale_job(rng: np.random.Generator, i: int, t: float) -> Job:
    return Job(
        name=f"sim-highscale-{i}",
        arrival_time=t,
        phases=[JobPhase(
            name="timestep-loop",
            workload=WorkloadClass.SIMULATION_HIGHSCALE,
            work_flops=rng.uniform(2.0, 8.0) * 1e16,
            nodes=int(rng.integers(16, 64)),
            parallel_fraction=0.999,
            uses_gpu=True,
            memory_GB_per_node=16.0,
            comm_bytes_per_node=rng.uniform(1, 4) * GB,
        )],
    )


def _analytics_job(rng: np.random.Generator, i: int, t: float) -> Job:
    return Job(
        name=f"analytics-{i}",
        arrival_time=t,
        phases=[JobPhase(
            name="spark-pipeline",
            workload=WorkloadClass.DATA_ANALYTICS,
            work_flops=rng.uniform(0.2, 1.0) * 1e15,
            nodes=int(rng.integers(2, 8)),
            parallel_fraction=0.95,
            memory_GB_per_node=rng.uniform(300, 450),   # needs DAM-class memory
            io_bytes=rng.uniform(0.5, 2.0) * 1024 * GB,
        )],
    )


def _ml_pipeline_job(rng: np.random.Generator, i: int, t: float) -> Job:
    """The intertwined HPC+HPDA job of the paper's third user type."""
    return Job(
        name=f"ml-pipeline-{i}",
        arrival_time=t,
        phases=[
            JobPhase(
                name="preprocess",
                workload=WorkloadClass.SIMULATION_LOWSCALE,
                work_flops=rng.uniform(0.1, 0.4) * 1e15,
                nodes=int(rng.integers(2, 6)),
                parallel_fraction=0.9,
                memory_GB_per_node=64.0,
                io_bytes=rng.uniform(0.5, 1.5) * 200 * GB,
            ),
            JobPhase(
                name="train",
                workload=WorkloadClass.ML_TRAINING,
                work_flops=rng.uniform(1.0, 4.0) * 1e18,
                nodes=int(rng.integers(8, 24)),
                parallel_fraction=0.998,
                uses_gpu=True,
                uses_tensor_cores=True,
                memory_GB_per_node=32.0,
                comm_bytes_per_node=rng.uniform(4, 16) * GB,
            ),
            JobPhase(
                name="evaluate",
                workload=WorkloadClass.ML_INFERENCE,
                work_flops=rng.uniform(0.5, 2.0) * 1e16,
                nodes=int(rng.integers(4, 16)),
                parallel_fraction=0.99,
                uses_gpu=True,
                memory_GB_per_node=16.0,
            ),
        ],
    )


def synthetic_workload_mix(
    n_jobs: int = 20,
    seed: int = 0,
    mean_interarrival_s: float = 600.0,
) -> list[Job]:
    """A deterministic mixed workload covering the Fig. 2 classes.

    Roughly 30% low-scale simulations, 25% high-scale simulations, 20%
    large-memory analytics, 25% intertwined ML pipelines, arriving as a
    Poisson stream.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if not mean_interarrival_s >= 0:
        raise ValueError("mean_interarrival_s must be >= 0")
    rng = np.random.default_rng(seed)
    makers = [_lowscale_job, _highscale_job, _analytics_job, _ml_pipeline_job]
    weights = np.array([0.30, 0.25, 0.20, 0.25])
    jobs: list[Job] = []
    t = 0.0
    for i in range(n_jobs):
        t += rng.exponential(mean_interarrival_s)
        maker = makers[rng.choice(len(makers), p=weights)]
        jobs.append(maker(rng, i, t))
    return jobs
