"""Tests for interconnect topologies and the MSA federation."""

import pytest

from repro.core import deep_system, juwels_system
from repro.simnet import (
    CommCostModel,
    Link,
    LinkKind,
    fat_tree,
    federated,
)


def _count(topo, terminal: bool) -> int:
    """Terminal (leaf) or switch (parent) nodes of a topology tree."""
    parents = {hop[0] for hop in topo.up.values() if hop is not None}
    return sum((node not in parents) == terminal for node in topo.up)


class TestLink:
    """A link's α-β cost, as the comm model charges it."""

    def test_transfer_time_is_alpha_beta(self):
        link = Link.of_kind(LinkKind.INFINIBAND_HDR)
        t = CommCostModel.of_kind(LinkKind.INFINIBAND_HDR).ptp(1_000_000)
        assert t == pytest.approx(link.latency_s + 1e6 / link.bandwidth_Bps)

    def test_zero_bytes_costs_latency_only(self):
        link = Link.of_kind(LinkKind.EXTOLL)
        assert CommCostModel.of_kind(LinkKind.EXTOLL).ptp(0) == link.latency_s

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            CommCostModel.of_kind(LinkKind.NVLINK).ptp(-1)

    def test_hdr_is_faster_than_edr(self):
        edr = Link.of_kind(LinkKind.INFINIBAND_EDR)
        hdr = Link.of_kind(LinkKind.INFINIBAND_HDR)
        assert hdr.bandwidth_Bps > edr.bandwidth_Bps
        assert hdr.latency_s <= edr.latency_s

    def test_nvlink_beats_pcie(self):
        nv = Link.of_kind(LinkKind.NVLINK)
        pcie = Link.of_kind(LinkKind.PCIE3)
        assert nv.bandwidth_Bps > pcie.bandwidth_Bps


class TestFatTree:
    def test_node_count(self):
        topo = fat_tree(40, LinkKind.INFINIBAND_EDR)
        assert _count(topo, terminal=True) == 40
        # 3 leaves + 1 spine
        assert _count(topo, terminal=False) == 4

    def test_same_leaf_two_hops(self):
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        assert len(topo.path(("node", 0), ("node", 1))) - 1 == 2

    def test_cross_leaf_four_hops(self):
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        assert len(topo.path(("node", 0), ("node", 20))) - 1 == 4

    def test_uplink_not_bottleneck(self):
        # The fat uplink should leave the access link as the bottleneck.
        topo = fat_tree(32, LinkKind.INFINIBAND_EDR)
        access_bw = Link.of_kind(LinkKind.INFINIBAND_EDR).bandwidth_Bps
        assert topo.path_bandwidth(("node", 0), ("node", 20)) == access_bw

    def test_transfer_time_self_is_zero(self):
        topo = fat_tree(8, LinkKind.INFINIBAND_EDR)
        assert topo.transfer_time(("node", 3), ("node", 3), 1e9) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            fat_tree(0, LinkKind.INFINIBAND_EDR)


class TestFederation:
    def _msa(self):
        return federated({
            "cm": fat_tree(8, LinkKind.INFINIBAND_EDR, name="cm"),
            "esb": fat_tree(16, LinkKind.INFINIBAND_HDR, name="esb"),
        })

    def test_terminals_preserved(self):
        topo = self._msa()
        assert _count(topo, terminal=True) == 24

    def test_intra_module_path_avoids_federation(self):
        topo = self._msa()
        path = topo.path(("cm", ("node", 0)), ("cm", ("node", 1)))
        assert ("federation", 0) not in path

    def test_inter_module_path_crosses_federation(self):
        topo = self._msa()
        path = topo.path(("cm", ("node", 0)), ("esb", ("node", 0)))
        assert ("federation", 0) in path

    def test_inter_module_slower_than_intra(self):
        topo = self._msa()
        intra = topo.transfer_time(("cm", ("node", 0)), ("cm", ("node", 1)), 1e8)
        inter = topo.transfer_time(("cm", ("node", 0)), ("esb", ("node", 0)), 1e8)
        assert inter > intra

    def test_empty_federation_rejected(self):
        with pytest.raises(ValueError):
            federated({})




#: ``inter_module_transfer_time(a, b, n).hex()`` at n = 0, 1e9 and 4e12
#: bytes, as the networkx-graph federation computed them.  Every pair is
#: checked in both directions.
TRANSFER_PINS = {
    "deep": {
        ("cm", "esb"): ("0x1.f75104d551d68p-18", "0x1.47b5f1bef49cfp-4",
                        "0x1.4000007dd4413p+8"),
        ("cm", "dam"): ("0x1.f75104d551d68p-18", "0x1.47b5f1bef49cfp-4",
                        "0x1.4000007dd4413p+8"),
        ("esb", "dam"): ("0x1.d5c31593e5fb6p-18", "0x1.47b56b8737974p-4",
                         "0x1.4000007570c56p+8"),
    },
    "juwels": {
        ("cluster", "cluster_gpu"): ("0x1.0c6f7a0b5ed8dp-17",
                                     "0x1.47b677f6b1a2ap-4",
                                     "0x1.4000008637bd0p+8"),
        ("cluster", "booster"): ("0x1.05b97d64afad0p-17",
                                 "0x1.47b64246cc6d3p-4",
                                 "0x1.40000082dcbebp+8"),
        ("cluster", "booster_svc"): ("0x1.05b97d64afad0p-17",
                                     "0x1.47b64246cc6d3p-4",
                                     "0x1.40000082dcbebp+8"),
        ("cluster_gpu", "booster"): ("0x1.05b97d64afad0p-17",
                                     "0x1.47b64246cc6d3p-4",
                                     "0x1.40000082dcbebp+8"),
        ("cluster_gpu", "booster_svc"): ("0x1.05b97d64afad0p-17",
                                         "0x1.47b64246cc6d3p-4",
                                         "0x1.40000082dcbebp+8"),
        ("booster", "booster_svc"): ("0x1.fe07017c01026p-18",
                                     "0x1.47b60c96e737bp-4",
                                     "0x1.4000007f81c06p+8"),
    },
}

#: ``topology.transfer_time(("node", 0), ("node", n - 1), 1e9).hex()`` of
#: each compute module's own fabric.
FABRIC_PINS = {
    "deep": {"cm": "0x1.47b24638c9753p-4", "esb": "0x1.47b139c94f69dp-4",
             "dam": "0x1.47afa7221858cp-4"},
    "juwels": {"cluster": "0x1.47b24638c9753p-4",
               "cluster_gpu": "0x1.47b24638c9753p-4",
               "booster": "0x1.47b5a1371ccccp-5",
               "booster_svc": "0x1.47b1dad8ff0a4p-5"},
}


class TestTransferPins:
    """Every transfer time the presets route is bit-equal to the graph
    search's."""

    @pytest.mark.parametrize("preset", ["deep", "juwels"])
    def test_inter_module(self, preset):
        system = {"deep": deep_system, "juwels": juwels_system}[preset]()
        pairs = TRANSFER_PINS[preset]
        modules = list(system.compute_modules())
        assert len(pairs) == len(modules) * (len(modules) - 1) // 2
        for (a, b), pins in pairs.items():
            for src, dst in ((a, b), (b, a)):
                got = tuple(system.inter_module_transfer_time(src, dst, n).hex()
                            for n in (0, 1e9, 4e12))
                assert got == pins, (src, dst)

    @pytest.mark.parametrize("preset", ["deep", "juwels"])
    def test_intra_fabric(self, preset):
        system = {"deep": deep_system, "juwels": juwels_system}[preset]()
        got = {k: m.topology.transfer_time(("node", 0), ("node", m.n_nodes - 1),
                                           1e9).hex()
               for k, m in system.compute_modules().items()}
        assert got == FABRIC_PINS[preset]
