"""Production MSA systems from the paper: DEEP and JUWELS.

Node counts follow Sec. II-B:

* **DEEP** — 16-node DAM exactly per Table I (2× Cascade Lake, 1 V100,
  1 STRATIX10, 384+32+32 GB, 2 TB NVM/node → 32 TB aggregate NVM), plus
  CM/ESB prototype partitions, SSSM, the NAM prototype, and the JUNIQ
  quantum module (D-Wave Advantage class: 5000 qubits / 35000 couplers).
* **JUWELS** — cluster module: 2583 nodes totalling ≈122,768 CPU cores and
  224 GPUs (56 quad-V100 nodes); booster module: 940 nodes, ≈45,024 CPU
  cores and 3,744 GPUs (quad-A100 nodes).  Our construction uses uniform
  dual-socket nodes, matching the paper's totals to within 1% (the paper's
  own figures mix node sub-types); `EXPERIMENTS.md` records both.
"""

from __future__ import annotations

from repro.simnet.link import LinkKind
from repro.core.hardware import (
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    JUWELS_BOOSTER_NODE,
    JUWELS_CLUSTER_GPU_NODE,
    JUWELS_CLUSTER_NODE,
    NodeSpec,
)
from repro.core.module import (
    BoosterModule,
    ClusterModule,
    DataAnalyticsModule,
    NamModule,
    QuantumModule,
    StorageModule,
)
from repro.core.system import MSASystem


def deep_system() -> MSASystem:
    """The DEEP modular supercomputer (DEEP-EST prototype)."""
    sys = MSASystem("DEEP")
    sys.add_module("cm", ClusterModule("DEEP-CM", DEEP_CM_NODE, n_nodes=50,
                                       fabric=LinkKind.INFINIBAND_EDR))
    sys.add_module("esb", BoosterModule("DEEP-ESB", DEEP_ESB_NODE, n_nodes=75,
                                        fabric=LinkKind.EXTOLL))
    sys.add_module("dam", DataAnalyticsModule("DEEP-DAM", DEEP_DAM_NODE,
                                              n_nodes=16))
    sys.add_module("sssm", StorageModule("DEEP-SSSM", capacity_PB=2.0, n_targets=16))
    sys.add_module("nam", NamModule("DEEP-NAM", capacity_GB=2048.0))
    sys.add_module("qm", QuantumModule("JUNIQ-Advantage", n_qubits=5000,
                                       n_couplers=35000, topology_family="pegasus"))
    return sys


def juwels_system() -> MSASystem:
    """JUWELS: Europe's then-No. 1 supercomputer, cluster + booster + storage."""
    sys = MSASystem("JUWELS")
    # 2583 cluster nodes; 56 of them carry 4x V100 (= 224 GPUs).
    sys.add_module("cluster", ClusterModule(
        "JUWELS-Cluster", JUWELS_CLUSTER_NODE, n_nodes=2583 - 56,
        fabric=LinkKind.INFINIBAND_EDR))
    sys.add_module("cluster_gpu", ClusterModule(
        "JUWELS-Cluster-GPU", JUWELS_CLUSTER_GPU_NODE, n_nodes=56,
        fabric=LinkKind.INFINIBAND_EDR))
    # 940 booster nodes; 936 carry 4x A100 (= 3744 GPUs), 4 are service nodes.
    sys.add_module("booster", BoosterModule(
        "JUWELS-Booster", JUWELS_BOOSTER_NODE, n_nodes=936,
        fabric=LinkKind.INFINIBAND_HDR))
    sys.add_module("booster_svc", ClusterModule(
        "JUWELS-Booster-Service", JUWELS_CLUSTER_NODE, n_nodes=4,
        fabric=LinkKind.INFINIBAND_HDR))
    sys.add_module("sssm", StorageModule("JUST-GPFS", capacity_PB=75.0,
                                         n_targets=128, target_GBps=6.0))
    return sys


def small_msa_system(
    cm_nodes: int = 8,
    esb_nodes: int = 8,
    dam_nodes: int = 2,
) -> MSASystem:
    """A small DEEP-shaped system for tests and examples.

    One cluster, one booster, one analytics module and storage — big enough
    to exercise matchmaking, co-allocation and fault recovery, small enough
    that a property sweep over hundreds of seeds stays fast.
    """
    sys = MSASystem("MSA-small")
    sys.add_module("cm", ClusterModule("CM", DEEP_CM_NODE, cm_nodes,
                                       fabric=LinkKind.INFINIBAND_EDR))
    sys.add_module("esb", BoosterModule("ESB", DEEP_ESB_NODE, esb_nodes,
                                        fabric=LinkKind.EXTOLL))
    sys.add_module("dam", DataAnalyticsModule("DAM", DEEP_DAM_NODE, dam_nodes))
    sys.add_module("sssm", StorageModule("SSSM", capacity_PB=1.0))
    return sys


def homogeneous_system(
    name: str,
    node_spec: NodeSpec,
    n_nodes: int,
    as_booster: bool = False,
) -> MSASystem:
    """A traditional single-module system — the baseline the MSA is compared
    against in the Fig. 2 workload-placement experiment (E2)."""
    sys = MSASystem(name)
    if as_booster:
        sys.add_module("all", BoosterModule(f"{name}-nodes", node_spec, n_nodes,
                                            fabric=LinkKind.INFINIBAND_EDR))
    else:
        sys.add_module("all", ClusterModule(f"{name}-nodes", node_spec, n_nodes,
                                            fabric=LinkKind.INFINIBAND_EDR))
    sys.add_module("sssm", StorageModule(f"{name}-storage", capacity_PB=2.0))
    return sys
