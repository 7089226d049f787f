"""The Modular Supercomputer Architecture (MSA) — the paper's contribution.

This package models the MSA exactly as Sec. II describes it:

* :mod:`repro.core.hardware` — device/node specifications, including the
  DEEP DAM node of Table I and the JUWELS cluster/booster nodes,
* :mod:`repro.core.module` — the module types: Cluster Module (CM), Extreme
  Scale Booster (ESB, with the FPGA Global Collective Engine), Data
  Analytics Module (DAM), Scalable Storage Service Module (SSSM), Network
  Attached Memory (NAM), and the Quantum Module (QM),
* :mod:`repro.core.system` — an MSA system: modules joined by the network
  federation (Fig. 1),
* :mod:`repro.core.presets` — the DEEP and JUWELS production systems,
* :mod:`repro.core.jobs` — heterogeneous application workloads (Fig. 2):
  multi-phase jobs whose phases prefer different module characteristics,
* :mod:`repro.core.scheduler` — discrete-event scheduling of heterogeneous
  workloads onto matching module combinations, with monolithic baselines,
* :mod:`repro.core.energy` — node/GPU power models and energy accounting.
"""

from repro.core.hardware import (
    CpuSpec,
    GpuSpec,
    FpgaSpec,
    MemorySpec,
    StorageSpec,
    NodeSpec,
    XEON_CASCADE_LAKE,
    XEON_PLATINUM_8168,
    KNL_MANYCORE,
    NVIDIA_V100,
    NVIDIA_A100,
    STRATIX10,
    DEEP_DAM_NODE,
    DEEP_CM_NODE,
    DEEP_ESB_NODE,
    JUWELS_CLUSTER_NODE,
    JUWELS_CLUSTER_GPU_NODE,
    JUWELS_BOOSTER_NODE,
)
from repro.core.module import (
    ModuleKind,
    ComputeModule,
    ClusterModule,
    BoosterModule,
    DataAnalyticsModule,
    StorageModule,
    NamModule,
    QuantumModule,
)
from repro.core.system import MSASystem
from repro.core.presets import (
    deep_system,
    juwels_system,
    homogeneous_system,
    small_msa_system,
)
from repro.core.jobs import (
    WorkloadClass,
    JobPhase,
    JobStatus,
    CoAllocatedPhase,
    Job,
    synthetic_workload_mix,
)
from repro.core.scheduler import (
    MsaScheduler,
    SchedulerPolicy,
    PlacementPolicy,
    ScheduleReport,
    Allocation,
    place_standalone,
    rank_placements,
    schedule_workload,
)
from repro.core.energy import PowerModel, EnergyAccountant
from repro.core.stats import (
    LatencySummary,
    percentile,
    summarize_latencies,
)

__all__ = [
    "CpuSpec", "GpuSpec", "FpgaSpec", "MemorySpec", "StorageSpec", "NodeSpec",
    "XEON_CASCADE_LAKE", "XEON_PLATINUM_8168", "KNL_MANYCORE",
    "NVIDIA_V100", "NVIDIA_A100", "STRATIX10",
    "DEEP_DAM_NODE", "DEEP_CM_NODE", "DEEP_ESB_NODE",
    "JUWELS_CLUSTER_NODE", "JUWELS_CLUSTER_GPU_NODE", "JUWELS_BOOSTER_NODE",
    "ModuleKind", "ComputeModule", "ClusterModule", "BoosterModule",
    "DataAnalyticsModule", "StorageModule", "NamModule", "QuantumModule",
    "MSASystem", "deep_system", "juwels_system", "homogeneous_system",
    "small_msa_system",
    "WorkloadClass", "JobPhase", "JobStatus", "CoAllocatedPhase", "Job",
    "synthetic_workload_mix",
    "MsaScheduler", "SchedulerPolicy", "PlacementPolicy", "ScheduleReport",
    "Allocation", "place_standalone", "rank_placements", "schedule_workload",
    "PowerModel", "EnergyAccountant",
    "LatencySummary", "percentile",
    "summarize_latencies",
]
