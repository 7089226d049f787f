"""Hardware specifications for the MSA modules.

Encodes the devices named by the paper — Intel Xeon Cascade Lake and
Platinum CPUs, NVIDIA V100 and A100 GPUs (with tensor cores), the Intel
STRATIX10 FPGA — and the node types of the DEEP and JUWELS systems,
including the DEEP DAM node of **Table I** verbatim:

========================  =============================================
CPU                       16 nodes with 2x Intel Xeon Cascade Lake
Hardware acceleration     16 NVIDIA V100 GPU, 16 Intel STRATIX10 FPGA
Memory                    384 GB DDR4 / node, 32 GB FPGA, 32 GB HBM2 GPU
Storage                   2x 1.5 TB NVMe SSD
========================  =============================================

Throughput figures are public datasheet numbers; the experiments depend on
their *ratios* (e.g. A100 tensor vs V100 tensor ≈ 2.5×), not absolutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional


GIGA = 1.0e9
TERA = 1.0e12
GB = 1024 ** 3


def _check_ranges(spec, may_be_zero: tuple[str, ...] = ()) -> None:
    """Every numeric field of ``spec`` must be finite and positive (or,
    when named in ``may_be_zero``, non-negative); NaN fails."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if not isinstance(value, (int, float)):
            continue
        zero_ok = f.name in may_be_zero
        in_range = value >= 0 if zero_ok else value > 0
        if not (in_range and math.isfinite(value)):
            bound = ">= 0" if zero_ok else "> 0"
            raise ValueError(f"{type(spec).__name__}.{f.name} must be finite "
                             f"and {bound}, got {value!r}")


@dataclass(frozen=True)
class CpuSpec:
    """A CPU socket."""

    name: str
    cores: int
    clock_ghz: float
    flops_per_cycle: int = 16          # AVX-512 FMA double pumped
    scalar_ipc: float = 4.0            # out-of-order fat core; ~1 for manycore
    tdp_watts: float = 150.0

    def __post_init__(self) -> None:
        _check_ranges(self)

    @property
    def peak_flops(self) -> float:
        return self.cores * self.clock_ghz * GIGA * self.flops_per_cycle

    @property
    def scalar_ops_per_s(self) -> float:
        """Aggregate scalar throughput — what data-management codes see."""
        return self.cores * self.clock_ghz * GIGA * self.scalar_ipc


@dataclass(frozen=True)
class GpuSpec:
    """A GPU accelerator."""

    name: str
    fp32_tflops: float
    fp64_tflops: float
    tensor_tflops: float               # mixed-precision tensor-core path
    memory_GB: float
    memory_bw_GBps: float
    nvlink_GBps: float
    tdp_watts: float

    def __post_init__(self) -> None:
        _check_ranges(self)

    @property
    def peak_flops(self) -> float:
        return self.fp32_tflops * TERA

    @property
    def tensor_flops(self) -> float:
        return self.tensor_tflops * TERA


@dataclass(frozen=True)
class FpgaSpec:
    """An FPGA accelerator (DEEP DAM / the ESB's GCE)."""

    name: str
    logic_elements_m: float
    memory_GB: float
    pcie_gen: int

    def __post_init__(self) -> None:
        _check_ranges(self)


@dataclass(frozen=True)
class MemorySpec:
    """Node memory hierarchy (DDR + HBM + NVM tiers)."""

    ddr_GB: float
    hbm_GB: float = 0.0
    nvm_GB: float = 0.0

    def __post_init__(self) -> None:
        _check_ranges(self, ("hbm_GB", "nvm_GB"))

    @property
    def total_GB(self) -> float:
        return self.ddr_GB + self.hbm_GB + self.nvm_GB


@dataclass(frozen=True)
class StorageSpec:
    """Node-local storage."""

    devices: int
    capacity_TB_each: float

    def __post_init__(self) -> None:
        _check_ranges(self)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: CPU sockets + accelerators + memory + local storage."""

    name: str
    cpu: CpuSpec
    memory: MemorySpec
    cpu_sockets: int = 2
    gpus: tuple[GpuSpec, ...] = ()
    fpgas: tuple[FpgaSpec, ...] = ()
    storage: Optional[StorageSpec] = None

    def __post_init__(self) -> None:
        _check_ranges(self)

    @property
    def cpu_cores(self) -> int:
        return self.cpu.cores * self.cpu_sockets

    @property
    def gpu_count(self) -> int:
        return len(self.gpus)

    @property
    def cpu_peak_flops(self) -> float:
        return self.cpu.peak_flops * self.cpu_sockets

    @property
    def gpu_peak_flops(self) -> float:
        return sum(g.peak_flops for g in self.gpus)

    @property
    def gpu_tensor_flops(self) -> float:
        return sum(g.tensor_flops for g in self.gpus)

    @property
    def peak_flops(self) -> float:
        return self.cpu_peak_flops + self.gpu_peak_flops


# ---------------------------------------------------------------------------
# device catalogue (paper hardware)
# ---------------------------------------------------------------------------

XEON_CASCADE_LAKE = CpuSpec(
    name="Intel Xeon Cascade Lake (Gold 6230)",
    cores=20, clock_ghz=2.1, tdp_watts=125.0,
)

XEON_PLATINUM_8168 = CpuSpec(
    name="Intel Xeon Platinum 8168 (Skylake)",
    cores=24, clock_ghz=2.7, tdp_watts=205.0,
)

#: Many-core CPU standing in for the ESB's 'numerous simpler cores' —
#: high vector throughput, weak single-thread performance.
KNL_MANYCORE = CpuSpec(
    name="Manycore (KNL-class)",
    cores=64, clock_ghz=1.4, flops_per_cycle=32, scalar_ipc=1.0, tdp_watts=215.0,
)

NVIDIA_V100 = GpuSpec(
    name="NVIDIA V100",
    fp32_tflops=15.7, fp64_tflops=7.8, tensor_tflops=125.0,
    memory_GB=32.0, memory_bw_GBps=900.0, nvlink_GBps=300.0, tdp_watts=300.0,
)

NVIDIA_A100 = GpuSpec(
    name="NVIDIA A100",
    fp32_tflops=19.5, fp64_tflops=9.7, tensor_tflops=312.0,
    memory_GB=40.0, memory_bw_GBps=1555.0, nvlink_GBps=600.0, tdp_watts=400.0,
)

STRATIX10 = FpgaSpec(
    name="Intel STRATIX10 (PCIe3)",
    logic_elements_m=2.8, memory_GB=32.0, pcie_gen=3,
)


# ---------------------------------------------------------------------------
# node catalogue (DEEP and JUWELS, from the paper)
# ---------------------------------------------------------------------------

#: Table I verbatim: the DEEP Data Analytics Module node.
DEEP_DAM_NODE = NodeSpec(
    name="DEEP DAM node",
    cpu=XEON_CASCADE_LAKE,
    cpu_sockets=2,
    gpus=(NVIDIA_V100,),
    fpgas=(STRATIX10,),
    memory=MemorySpec(ddr_GB=384.0, hbm_GB=32.0, nvm_GB=2048.0),
    storage=StorageSpec(devices=2, capacity_TB_each=1.5),
)

DEEP_CM_NODE = NodeSpec(
    name="DEEP CM node",
    cpu=XEON_CASCADE_LAKE,
    cpu_sockets=2,
    memory=MemorySpec(ddr_GB=192.0),
)

DEEP_ESB_NODE = NodeSpec(
    name="DEEP ESB node",
    cpu=KNL_MANYCORE,
    cpu_sockets=1,
    gpus=(NVIDIA_V100,),
    memory=MemorySpec(ddr_GB=48.0, hbm_GB=16.0),
)

JUWELS_CLUSTER_NODE = NodeSpec(
    name="JUWELS cluster node",
    cpu=XEON_PLATINUM_8168,
    cpu_sockets=2,
    memory=MemorySpec(ddr_GB=96.0),
)

JUWELS_CLUSTER_GPU_NODE = NodeSpec(
    name="JUWELS cluster GPU node",
    cpu=XEON_PLATINUM_8168,
    cpu_sockets=2,
    gpus=(NVIDIA_V100,) * 4,
    memory=MemorySpec(ddr_GB=192.0),
)

JUWELS_BOOSTER_NODE = NodeSpec(
    name="JUWELS booster node",
    cpu=XEON_PLATINUM_8168,   # stand-in for the booster's EPYC hosts
    cpu_sockets=2,
    gpus=(NVIDIA_A100,) * 4,
    memory=MemorySpec(ddr_GB=512.0),
)
