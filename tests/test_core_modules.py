"""Module inventory, allocation and the MSA system presets."""

import pytest

from repro.core import (
    BoosterModule,
    ClusterModule,
    DataAnalyticsModule,
    DEEP_CM_NODE,
    DEEP_DAM_NODE,
    DEEP_ESB_NODE,
    ModuleKind,
    MSASystem,
    NamModule,
    QuantumModule,
    StorageModule,
    deep_system,
    homogeneous_system,
    juwels_system,
    JUWELS_CLUSTER_NODE,
)
from repro.core.module import AllocationError


class TestAllocation:
    def test_allocate_release_roundtrip(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 10)
        nodes = cm.allocate(4)
        assert cm.free_nodes == 6
        cm.release(nodes)
        assert cm.free_nodes == 10

    def test_allocation_deterministic_lowest_first(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 5)
        assert cm.allocate(3) == [0, 1, 2]

    def test_over_allocation_raises(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 2)
        with pytest.raises(AllocationError):
            cm.allocate(3)

    def test_double_release_raises(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 2)
        nodes = cm.allocate(1)
        cm.release(nodes)
        with pytest.raises(AllocationError):
            cm.release(nodes)

    def test_release_out_of_range_raises(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 2)
        with pytest.raises(AllocationError):
            cm.release([99])

    def test_negative_allocation_rejected(self):
        cm = ClusterModule("cm", DEEP_CM_NODE, 2)
        with pytest.raises(ValueError):
            cm.allocate(-1)


class TestModuleInventory:
    def test_totals(self):
        dam = DataAnalyticsModule("dam", DEEP_DAM_NODE, 16)
        assert dam.total_cpu_cores == 16 * 40
        assert dam.total_gpus == 16
        assert dam.total_fpgas == 16
        assert dam.total_nvm_GB == 16 * 2048.0

    def test_kind_tags(self):
        assert ClusterModule("a", DEEP_CM_NODE, 1).kind is ModuleKind.CLUSTER
        assert BoosterModule("b", DEEP_ESB_NODE, 1).kind is ModuleKind.BOOSTER
        assert DataAnalyticsModule("c", DEEP_DAM_NODE, 1).kind is \
            ModuleKind.DATA_ANALYTICS

    def test_topology_matches_node_count(self):
        esb = BoosterModule("esb", DEEP_ESB_NODE, 20)
        up = esb.topology.up
        parents = {hop[0] for hop in up.values() if hop is not None}
        assert len(up.keys() - parents) == 20


class TestServiceModules:
    def test_storage_aggregate_bandwidth(self):
        sssm = StorageModule("s", capacity_PB=2.0, n_targets=16, target_GBps=5.0)
        assert sssm.aggregate_GBps == 80.0


class TestPresets:
    def test_deep_has_all_module_kinds(self):
        deep = deep_system()
        kinds = {m.kind for m in deep.modules.values()}
        assert kinds == {ModuleKind.CLUSTER, ModuleKind.BOOSTER,
                         ModuleKind.DATA_ANALYTICS, ModuleKind.STORAGE,
                         ModuleKind.NAM, ModuleKind.QUANTUM}

    def test_deep_dam_is_table_one(self):
        dam = deep_system().module("dam")
        assert dam.n_nodes == 16
        assert dam.total_gpus == 16
        assert dam.total_fpgas == 16
        # 32 TB aggregated NVM as the paper states.
        assert dam.total_nvm_GB == pytest.approx(32 * 1024)

    def test_deep_quantum_is_advantage(self):
        qm = deep_system().module("qm")
        assert qm.n_qubits == 5000
        assert qm.n_couplers == 35000

    def test_juwels_totals_match_paper_within_1pct(self):
        ju = juwels_system()
        cluster_cores = (ju.module("cluster").total_cpu_cores
                         + ju.module("cluster_gpu").total_cpu_cores)
        booster_cores = (ju.module("booster").total_cpu_cores
                         + ju.module("booster_svc").total_cpu_cores)
        assert abs(cluster_cores - 122_768) / 122_768 < 0.011
        assert abs(booster_cores - 45_024) / 45_024 < 0.01

    def test_juwels_gpu_counts_exact(self):
        ju = juwels_system()
        assert ju.module("cluster_gpu").total_gpus == 224
        assert ju.module("booster").total_gpus == 3744

    def test_juwels_node_counts(self):
        ju = juwels_system()
        cluster_nodes = (ju.module("cluster").n_nodes
                         + ju.module("cluster_gpu").n_nodes)
        booster_nodes = (ju.module("booster").n_nodes
                         + ju.module("booster_svc").n_nodes)
        assert cluster_nodes == 2583
        assert booster_nodes == 940

    def test_homogeneous_single_compute_module(self):
        homo = homogeneous_system("flat", JUWELS_CLUSTER_NODE, 100)
        assert list(homo.compute_modules()) == ["all"]


class TestMSASystem:
    def test_duplicate_module_key_rejected(self):
        sys = MSASystem("x")
        sys.add_module("cm", ClusterModule("cm", DEEP_CM_NODE, 1))
        with pytest.raises(ValueError):
            sys.add_module("cm", ClusterModule("cm2", DEEP_CM_NODE, 1))

    def test_unknown_module_key(self):
        with pytest.raises(KeyError):
            deep_system().module("nope")

    def test_federation_built_over_compute_modules(self):
        deep = deep_system()
        topo = deep.federation
        assert ("federation", 0) in topo.up

    def test_inter_module_transfer_positive(self):
        deep = deep_system()
        t = deep.inter_module_transfer_time("cm", "dam", 1e9)
        assert t > 0
        assert deep.inter_module_transfer_time("cm", "cm", 1e9) == 0.0

    def test_inventory_and_describe(self):
        deep = deep_system()
        rows = deep.inventory()
        assert len(rows) == 6
        text = deep.describe()
        assert "DEEP" in text and "qubits" in text
