"""E1 — Table I + Fig. 1: MSA system construction and spec validation.

Regenerates Table I (the DEEP DAM) and the JUWELS module totals the paper
quotes in Sec. II-B, and times full MSA-system construction including the
federated topology.
"""

import pytest

from repro.core import deep_system, juwels_system
from conftest import emit_table


def test_table1_deep_dam_specs():
    deep = deep_system()
    dam = deep.module("dam")
    spec = dam.node_spec
    rows = [
        ["CPU", "16 nodes with 2x Intel Xeon Cascade Lake",
         f"{dam.n_nodes} nodes with {spec.cpu_sockets}x {spec.cpu.name}"],
        ["GPU", "16 NVIDIA V100", f"{dam.total_gpus} {spec.gpus[0].name}"],
        ["FPGA", "16 Intel STRATIX10 PCIe3",
         f"{dam.total_fpgas} {spec.fpgas[0].name}"],
        ["DDR4/node", "384 GB", f"{spec.memory.ddr_GB:.0f} GB"],
        ["HBM2/node", "32 GB", f"{spec.memory.hbm_GB:.0f} GB"],
        ["NVMe/node", "2x 1.5 TB", f"{spec.storage.devices}x "
         f"{spec.storage.capacity_TB_each} TB"],
        ["NVM aggregate", "32 TB", f"{dam.total_nvm_GB / 1024:.0f} TB"],
    ]
    emit_table("E1/Table I — DEEP DAM: paper vs built",
               ["item", "paper", "built"], rows)

    assert dam.n_nodes == 16
    assert dam.total_gpus == 16
    assert dam.total_fpgas == 16
    assert spec.memory.ddr_GB == 384.0
    assert dam.total_nvm_GB == pytest.approx(32 * 1024)


def test_table1_juwels_totals():
    ju = juwels_system()
    cluster_cores = (ju.module("cluster").total_cpu_cores
                     + ju.module("cluster_gpu").total_cpu_cores)
    booster_cores = (ju.module("booster").total_cpu_cores
                     + ju.module("booster_svc").total_cpu_cores)
    cluster_gpus = ju.module("cluster_gpu").total_gpus
    booster_gpus = ju.module("booster").total_gpus
    rows = [
        ["cluster nodes", 2583,
         ju.module("cluster").n_nodes + ju.module("cluster_gpu").n_nodes],
        ["cluster CPU cores", 122_768, cluster_cores],
        ["cluster GPUs", 224, cluster_gpus],
        ["booster nodes", 940,
         ju.module("booster").n_nodes + ju.module("booster_svc").n_nodes],
        ["booster CPU cores", 45_024, booster_cores],
        ["booster GPUs", 3744, booster_gpus],
    ]
    emit_table("E1 — JUWELS (Sec. II-B): paper vs built",
               ["quantity", "paper", "built"], rows)

    assert abs(cluster_cores - 122_768) / 122_768 < 0.011
    assert abs(booster_cores - 45_024) / 45_024 < 0.01
    assert cluster_gpus == 224
    assert booster_gpus == 3744


def test_federation_construction():
    """Fig. 1's federated network over all module fabrics."""
    def build():
        deep = deep_system()
        return deep.federation

    topo = build()
    assert ("federation", 0) in topo.graph.nodes
    # Inter-module transfers cross the federation and cost more.
    deep = deep_system()
    intra = deep.module("cm").topology.transfer_time(
        ("node", 0), ("node", 1), 1e9)
    inter = deep.inter_module_transfer_time("cm", "dam", 1e9)
    assert inter > intra
