"""Hardware catalogue tests, including the Table I encoding."""

import dataclasses

import pytest

from repro.core import (
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    JUWELS_BOOSTER_NODE,
    JUWELS_CLUSTER_GPU_NODE,
    JUWELS_CLUSTER_NODE,
    KNL_MANYCORE,
    NVIDIA_A100,
    NVIDIA_V100,
    STRATIX10,
    XEON_CASCADE_LAKE,
    XEON_PLATINUM_8168,
    CpuSpec,
    GpuSpec,
    MemorySpec,
    NodeSpec,
)
from repro.core.hardware import FpgaSpec, StorageSpec

NAN, INF = float("nan"), float("inf")


class TestTableI:
    """Table I of the paper, verbatim: the DEEP DAM node."""

    def test_two_cascade_lake_sockets(self):
        assert DEEP_DAM_NODE.cpu is XEON_CASCADE_LAKE
        assert DEEP_DAM_NODE.cpu_sockets == 2
        assert "Cascade Lake" in DEEP_DAM_NODE.cpu.name

    def test_one_v100_gpu(self):
        assert DEEP_DAM_NODE.gpu_count == 1
        assert DEEP_DAM_NODE.gpus[0] is NVIDIA_V100

    def test_one_stratix10_fpga_pcie3(self):
        assert len(DEEP_DAM_NODE.fpgas) == 1
        assert DEEP_DAM_NODE.fpgas[0] is STRATIX10
        assert STRATIX10.pcie_gen == 3

    def test_memory_384_ddr_32_fpga_32_hbm(self):
        assert DEEP_DAM_NODE.memory.ddr_GB == 384.0
        assert DEEP_DAM_NODE.memory.hbm_GB == 32.0       # GPU HBM2
        assert STRATIX10.memory_GB == 32.0               # FPGA DDR4

    def test_storage_2x_1p5_TB_nvme(self):
        assert DEEP_DAM_NODE.storage.devices == 2
        assert DEEP_DAM_NODE.storage.capacity_TB_each == 1.5

    def test_nvm_2tb_per_node(self):
        assert DEEP_DAM_NODE.memory.nvm_GB == 2048.0


class TestCpuSpec:
    def test_peak_flops(self):
        cpu = CpuSpec(name="x", cores=10, clock_ghz=2.0, flops_per_cycle=16)
        assert cpu.peak_flops == 10 * 2.0e9 * 16

    def test_scalar_throughput(self):
        assert XEON_PLATINUM_8168.scalar_ops_per_s == pytest.approx(
            24 * 2.7e9 * XEON_PLATINUM_8168.scalar_ipc)

    def test_manycore_strong_vector_throughput(self):
        assert KNL_MANYCORE.peak_flops > XEON_CASCADE_LAKE.peak_flops


class TestGpuSpec:
    def test_a100_tensor_cores_2p5x_v100(self):
        ratio = NVIDIA_A100.tensor_tflops / NVIDIA_V100.tensor_tflops
        assert ratio == pytest.approx(2.5, rel=0.01)

    def test_a100_memory_bandwidth_higher(self):
        assert NVIDIA_A100.memory_bw_GBps > NVIDIA_V100.memory_bw_GBps

    def test_tensor_flops_dwarf_fp32(self):
        for gpu in (NVIDIA_A100, NVIDIA_V100):
            assert gpu.tensor_flops > 5 * gpu.peak_flops


class TestNodeSpec:
    def test_cpu_cores_counts_sockets(self):
        assert JUWELS_CLUSTER_NODE.cpu_cores == 48

    def test_gpu_aggregates(self):
        assert JUWELS_BOOSTER_NODE.gpu_count == 4
        assert JUWELS_BOOSTER_NODE.gpu_tensor_flops == 4 * NVIDIA_A100.tensor_flops

    def test_booster_node_outpowers_cluster_node(self):
        assert JUWELS_BOOSTER_NODE.peak_flops > 15 * JUWELS_CLUSTER_NODE.peak_flops

    def test_esb_node_is_manycore(self):
        assert DEEP_ESB_NODE.cpu is KNL_MANYCORE
        assert DEEP_ESB_NODE.gpu_count == 1


class TestMemoryAndStorage:
    def test_total_memory(self):
        mem = MemorySpec(ddr_GB=100.0, hbm_GB=20.0, nvm_GB=1000.0)
        assert mem.total_GB == 1120.0

    def test_cluster_gpu_node_has_4_v100(self):
        assert JUWELS_CLUSTER_GPU_NODE.gpu_count == 4
        assert all(g is NVIDIA_V100 for g in JUWELS_CLUSTER_GPU_NODE.gpus)


class TestRanges:
    """Sizes and rates are finite and positive when a spec is built."""

    PRESETS = (XEON_CASCADE_LAKE, XEON_PLATINUM_8168, KNL_MANYCORE,
               NVIDIA_V100, NVIDIA_A100, STRATIX10, DEEP_DAM_NODE,
               DEEP_ESB_NODE, JUWELS_CLUSTER_NODE, JUWELS_CLUSTER_GPU_NODE,
               JUWELS_BOOSTER_NODE)

    @staticmethod
    def _build(kind: str, **bad):
        specs = {
            "cpu": (CpuSpec, dict(name="c", cores=4, clock_ghz=2.0)),
            "gpu": (GpuSpec, dict(name="g", fp32_tflops=1.0,
                                  fp64_tflops=0.5, tensor_tflops=8.0,
                                  memory_GB=16.0, memory_bw_GBps=900.0,
                                  nvlink_GBps=300.0, tdp_watts=250.0)),
            "fpga": (FpgaSpec, dict(name="f", logic_elements_m=2.8,
                                    memory_GB=32.0, pcie_gen=3)),
            "memory": (MemorySpec, dict(ddr_GB=96.0)),
            "storage": (StorageSpec, dict(devices=2, capacity_TB_each=1.5)),
            "node": (NodeSpec, dict(name="n", cpu=XEON_CASCADE_LAKE,
                                    memory=MemorySpec(ddr_GB=96.0))),
        }
        cls, kwargs = specs[kind]
        return cls(**{**kwargs, **bad})

    @pytest.mark.parametrize("kind,field,value", [
        ("cpu", "cores", 0), ("cpu", "clock_ghz", NAN),
        ("cpu", "flops_per_cycle", -16), ("cpu", "scalar_ipc", INF),
        ("cpu", "tdp_watts", -1.0),
        ("gpu", "fp32_tflops", NAN), ("gpu", "memory_GB", 0.0),
        ("gpu", "memory_bw_GBps", -900.0), ("gpu", "tdp_watts", INF),
        ("fpga", "logic_elements_m", NAN), ("fpga", "pcie_gen", 0),
        ("memory", "ddr_GB", 0.0), ("memory", "hbm_GB", -1.0),
        ("memory", "nvm_GB", NAN),
        ("storage", "devices", 0), ("storage", "capacity_TB_each", INF),
        ("node", "cpu_sockets", 0),
    ])
    def test_out_of_range_field_rejected(self, kind, field, value):
        with pytest.raises(ValueError, match=field):
            self._build(kind, **{field: value})

    @pytest.mark.parametrize("kind", ["cpu", "gpu", "fpga", "memory",
                                      "storage", "node"])
    def test_in_range_spec_builds(self, kind):
        self._build(kind)

    def test_absent_memory_tiers_may_be_zero(self):
        assert MemorySpec(ddr_GB=96.0, hbm_GB=0.0, nvm_GB=0.0).total_GB == 96.0

    @pytest.mark.parametrize("index", range(len(PRESETS)))
    def test_every_preset_builds(self, index):
        spec = self.PRESETS[index]
        assert dataclasses.replace(spec) == spec      # the checks run again

